"""random_targeted_attack against the np.unique / np.isin candidate list it replaced."""

import numpy as np
import pytest

from edgecert.attack import BudgetInfeasibleError, random_targeted_attack
from edgecert.graph import SbmConfig, pair_slot, sbm_generate, slot_pair


def _reference_candidates(g, target):
    indptr, indices = g.csr
    closed = np.append(indices[indptr[target] : indptr[target + 1]], target)
    u = np.repeat(closed, g.n_nodes)
    v = np.tile(np.arange(g.n_nodes), closed.size)
    apart = u != v
    u, v = u[apart], v[apart]
    present = pair_slot(g.edges[:, 0], g.edges[:, 1], g.n_nodes)
    slots = np.unique(pair_slot(np.minimum(u, v), np.maximum(u, v), g.n_nodes))
    return slots[~np.isin(slots, present, assume_unique=True)]


def _reference_attack(g, target, budget, seed):
    if budget == 0:
        return np.zeros((0, 2), dtype=np.int64)
    candidates = _reference_candidates(g, target)
    if budget > len(candidates):
        raise BudgetInfeasibleError(
            f"budget {budget} exceeds {len(candidates)} feasible pairs around node {target}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=budget, replace=False)
    return np.column_stack(slot_pair(candidates[np.sort(picks)], g.n_nodes))


SBM_FIXTURES = {
    "2x10": (2, 10, 0.5, 0.05),
    "2x50": (2, 50, 0.3, 0.02),
    "8x12-sparse": (8, 12, 0.1, 0.002),
    "3x4-dense": (3, 4, 0.9, 0.6),
    "1x6-complete": (1, 6, 1.0, 1.0),
    "3x3-edgeless": (3, 3, 0.0, 0.0),
}


@pytest.mark.parametrize("name", list(SBM_FIXTURES))
def test_targeted_picks_match_unique_isin_reference(name):
    blocks, per_block, p_in, p_out = SBM_FIXTURES[name]
    g = sbm_generate(SbmConfig(
        blocks=blocks, nodes_per_block=per_block, p_in=p_in, p_out=p_out,
        feature_centers=np.zeros((blocks, 1)), feature_noise_sd=0.0, seed=len(name),
    ))
    n_infeasible = 0
    for target in range(g.n_nodes):
        largest = len(_reference_candidates(g, target))
        for budget in sorted({1, 3, 5, largest, largest + 1}):
            seed = 1000 * target + budget
            if budget > largest:
                n_infeasible += 1
                with pytest.raises(BudgetInfeasibleError) as want:
                    _reference_attack(g, target, budget, seed)
                with pytest.raises(BudgetInfeasibleError) as got:
                    random_targeted_attack(g, target, budget, seed)
                assert str(got.value) == str(want.value)
            else:
                want = _reference_attack(g, target, budget, seed)
                got = random_targeted_attack(g, target, budget, seed)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert n_infeasible >= g.n_nodes
