import numpy as np
import pytest

from robcls import classes, modules
from robcls.classes import RANK, class_dim, grade_columns
from robcls.frames import reference_frame
from robcls.graphs import paper_arrow_set
from robcls.modules import ModuleKey, module_table, rob_table, sim_table
from robcls.repdims import (
    _lowered_on_grade,
    all_dim_checks,
    computed_arrow_set,
    computed_module_dim,
    lowering_action,
    nilpotent_action_check,
    paper_arrow_delta,
)

SPACES = ("G", "F", "A", "C")


def test_symmetry_basis_counts():
    assert class_dim("F", 7) == sim_table("F", 7).total_dim == 27
    assert class_dim("C", 6) == sim_table("C", 6).total_dim == 84
    assert class_dim("A", 4) == sim_table("A", 4).total_dim == 16


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


def test_dim_checks_decide_no_rank(monkeypatch):
    """The dimension checks read the rank measured by the table build: on built tables they call no
    `orthonormal_coefficients`."""
    sim_table("C", 6), rob_table("C", 6)
    calls, inner = [], classes.orthonormal_coefficients

    def counted(mat):
        calls.append(mat.shape)
        return inner(mat)

    monkeypatch.setattr(modules, "orthonormal_coefficients", counted)
    monkeypatch.setattr(classes, "orthonormal_coefficients", counted)
    for level in ("sim", "rob"):
        all_dim_checks("C", 6, level)
    assert calls == []


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
    from robcls.frames import reference_frame
    from robcls.repdims import lowering_action

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
    """Grade-local lowering equals the per-tensor action on the target grade
    bit for bit, per row and direction, and the action vanishes off that grade."""
    frame = reference_frame(n)
    eye = np.eye(n - 2)
    for space in ("A", "C"):
        rank = RANK[space]
        shape = (n,) * rank
        for table in (sim_table(space, n), rob_table(space, n)):
            for e in table.entries:
                q = e.grade
                cols = grade_columns(n, rank, q - 1)
                off = np.ones(n**rank, dtype=bool)
                off[cols] = False
                imgs = _lowered_on_grade(e.basis[:, grade_columns(n, rank, q)], n, rank, q)
                assert imgs.shape == (e.dim * (n - 2), cols.size)
                for r, row in enumerate(e.basis):
                    for d in range(n - 2):
                        ref = lowering_action(row.reshape(shape), frame, eye[d]).ravel()
                        assert np.array_equal(imgs[r * (n - 2) + d], ref[cols]), (str(e.key), r, d)
                        assert np.array_equal(ref[off], np.zeros(off.sum())), (str(e.key), r, d)


def _full_width_arrow_set(space, n, level):
    """The arrow set from full-width images of each whole basis, gathered
    onto the target grade and paired with one target module at a time."""
    table = module_table(space, n, level)
    rank = RANK[space]
    out = set()
    for e in table.entries:
        targets = [t for t in table.entries if t.grade == e.grade - 1]
        if not targets:
            continue
        T = e.basis.reshape(-1, *(n,) * rank)
        imgs = np.zeros((T.shape[0], n - 2) + T.shape[1:])

        def at(slot, index):
            key = [slice(None)] * (rank + 1)
            key[slot] = index
            return tuple(key)

        for d in range(n - 2):
            od = imgs[:, d]
            for s in range(1, rank + 1):
                od[at(s, d + 1)] -= T[at(s, n - 1)]
                od[at(s, 0)] += T[at(s, d + 1)]
        imgs = imgs.reshape(T.shape[0] * (n - 2), -1)
        scale = max(np.abs(imgs).max(), 1e-300)
        cols = grade_columns(n, rank, e.grade - 1)
        imgs = imgs[:, cols]
        for t in targets:
            if np.abs(imgs @ t.basis[:, cols].T).max() > 1e-8 * scale:
                out.add((e.key, t.key))
    return out


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_arrow_set_matches_full_width_images(n):
    for space in SPACES:
        for level in ("sim", "rob"):
            assert computed_arrow_set(space, n, level) == _full_width_arrow_set(space, n, level), (space, n, level)


def test_arrow_set_depends_on_tol():
    """The C arrow set at n = 5 has its 14 arrows."""
    assert len(computed_arrow_set("C", 5, "sim")) == 14
