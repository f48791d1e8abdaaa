import numpy as np
import pytest

from robcls.classes import RANK, class_dim
from robcls.modules import ModuleKey, rob_table, sim_table
from robcls.repdims import (
    all_dim_checks,
    computed_arrow_set,
    _lowered_basis,
    computed_module_dim,
    lowering_action,
    nilpotent_action_check,
    paper_arrow_delta,
    paper_arrow_set,
    reference_frame,
    symmetry_basis,
)

SPACES = ("G", "F", "A", "C")


def test_symmetry_basis_counts():
    assert symmetry_basis("F", 7).shape[0] == 27
    assert symmetry_basis("C", 6).shape[0] == 84
    assert symmetry_basis("A", 4).shape[0] == 16


@pytest.mark.parametrize("n", (4, 6, 9))
@pytest.mark.parametrize("space", SPACES)
def test_dimension_checks_sampled(space, n):
    for level in ("sim", "rob"):
        for chk in all_dim_checks(space, n, level):
            assert chk.match, (space, n, level, str(chk.key), chk.formula_dim, chk.computed_dim)
            assert chk.gap > 10.0


def test_specific_rank_examples():
    chk = computed_module_dim("C", 8, ModuleKey("C", 0, 3), "sim")
    assert chk.computed_dim == 84
    chk = computed_module_dim("F", 9, ModuleKey("F", 0, 1), "sim")
    assert chk.computed_dim == 27
    chk = computed_module_dim("C", 8, ModuleKey("C", 0, 3, 5), "rob")
    assert chk.computed_dim == 27


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_arrow_and_leak_sim(n):
    for space in SPACES:
        checks = nilpotent_action_check(space, n, "sim", samples=4)
        bad = [c for c in checks if not c.ok]
        assert not bad, [(str(c.source), str(c.target), c.is_arrow, c.max_component) for c in bad]


@pytest.mark.parametrize("n", (5, 6))
def test_arrow_and_leak_rob(n):
    for space in SPACES:
        checks = nilpotent_action_check(space, n, "rob", samples=4)
        bad = [c for c in checks if not c.ok]
        assert not bad, [(str(c.source), str(c.target), c.is_arrow, c.max_component) for c in bad]


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9))
def test_published_arrows_are_subset(n):
    """Every published diagram arrow is confirmed by the exact computation;
    the computed sets may strictly contain them (omissions in the dense
    figures are recorded, spurious arrows would fail here)."""
    for space in SPACES:
        for level in ("sim", "rob"):
            delta = paper_arrow_delta(space, n, level)
            assert not delta["spurious_in_paper"], (space, n, level, delta)


def test_sim_diagrams_published_exactly(n=6):
    """The null-line diagrams match the computed arrow sets exactly."""
    for space in SPACES:
        for nn in (4, 5, 6, 7):
            assert paper_arrow_set(space, nn, "sim") == computed_arrow_set(space, nn, "sim"), (space, nn)


def test_bottom_grade_action_vanishes():
    """Lowering a bottom-grade representative gives exactly zero."""
    from robcls.repdims import lowering_action, reference_frame

    for n in (5, 6):
        fr = reference_frame(n)
        for space in SPACES:
            tab = sim_table(space, n)
            bottom = min(e.grade for e in tab.entries)
            for e in tab.entries:
                if e.grade != bottom:
                    continue
                rank = int(round(np.log(e.basis.shape[1]) / np.log(n)))
                T = e.basis[0].reshape((n,) * rank)
                z = np.ones(n - 2) / np.sqrt(n - 2)
                dT = lowering_action(T, fr, z)
                assert np.abs(dT).max() < 1e-12


@pytest.mark.parametrize("n", (5, 6, 7))
def test_lowered_basis_matches_lowering_action(n):
    """Whole-basis lowering equals the per-tensor action bit for bit, per row and direction."""
    frame = reference_frame(n)
    eye = np.eye(n - 2)
    for space in ("A", "C"):
        shape = (n,) * RANK[space]
        for table in (sim_table(space, n), rob_table(space, n)):
            for e in table.entries:
                imgs = _lowered_basis(e.basis, n, RANK[space])
                assert imgs.shape == (e.dim * (n - 2), n ** RANK[space])
                for r, row in enumerate(e.basis):
                    for d in range(n - 2):
                        ref = lowering_action(row.reshape(shape), frame, eye[d]).ravel()
                        assert np.array_equal(imgs[r * (n - 2) + d], ref), (str(e.key), r, d)
