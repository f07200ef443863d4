"""Batched lemma kernels against their row-by-row references.

Each kernel takes a fault matrix (one fault per row).  The references
below are the per-vector implementations the kernels replaced; every
batched result must equal the reference applied row by row (statuses,
residuals, ok / bound_ok flags), and a batch with a failing row must raise
what the first failing row raises.
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsurg import codes, gf2, ltsp, protocol, sim, surgery

SETTINGS = settings(max_examples=40, deadline=None)
ERRORS = (ltsp.ResourceStateError, AssertionError, ValueError)


# ── references: the per-vector kernels ─────────────────────────────────


def ref_check_z_bound(spp, e_sp_z):
    lay = spp.layout_z
    e = np.asarray(e_sp_z, dtype=np.uint8)
    n_d = spp.source.n
    acc = np.zeros(lay.groups[0][1], dtype=np.uint8)
    for name in ("B2", "B3", "B4", "B5", "C1", "C2", "C3", "C4", "C5"):
        acc = acc ^ lay.part(e, name)
    u = gf2.unvec(acc, n_d)
    u6 = gf2.unvec(lay.part(e, "B6") ^ lay.part(e, "C6"), n_d)
    g_j = spp.f.g[spp.copy_j]
    e_jv = gf2.eye(spp.f.k)[spp.copy_j]
    u_eff = gf2.mul(u, g_j) ^ gf2.mul(u6, e_jv)
    e_rs = np.concatenate([np.zeros(n_d, dtype=np.uint8), u_eff])
    if not np.array_equal(gf2.mul(spp.rs.h_rs_x, e_rs), gf2.mul(spp.j_sp_x, e)):
        raise ltsp.ResourceStateError("Z-residual equivalence identity failed")
    return e_rs, gf2.weight(e_rs) <= gf2.weight(e)


def ref_check_x_bound(spp, e_sp_x):
    lay = spp.layout_x
    e = np.asarray(e_sp_x, dtype=np.uint8)
    if gf2.mul(spp.h_sp_z, e).any():
        return SimpleNamespace(status="detected", e_rs_x=None, bound_ok=None)
    n_d, r_z = spp.source.n, spp.source.h_z.shape[0]
    f = spp.f

    def um(*names):
        acc = np.zeros(dict(lay.groups)[names[0]], dtype=np.uint8)
        for nm in names:
            acc = acc ^ lay.part(e, nm)
        return acc

    u_b = gf2.unvec(um("B1", "B2", "B3", "B4", "C2"), n_d)
    up_b = gf2.unvec(lay.part(e, "B5"), n_d)
    upp_b = gf2.unvec(lay.part(e, "B6"), n_d)
    u_c = gf2.unvec(um("C3", "C4"), n_d)
    up_c = gf2.unvec(lay.part(e, "C5"), n_d)
    upp_c = gf2.unvec(lay.part(e, "C6"), n_d)
    u_d = gf2.unvec(um("D1", "D2", "D3"), r_z)

    amp = spp.amplification()
    ws = {}
    for tag in ("B", "C"):
        v = gf2.unvec(lay.part(e, f"mea{tag}"), n_d)
        w = gf2.zeros(n_d, f.n)
        for a in range(n_d):
            if not v[a].any():
                continue
            sol = gf2.solve_linear(f.h, v[a], mode="min_weight")
            if sol is None:
                raise ltsp.ResourceStateError(
                    "undetected flips outside colsp(h_f)")
            if gf2.weight(sol) > amp * gf2.weight(v[a]):
                raise ltsp.ResourceStateError(
                    "min-weight preimage beats the soundness bound??")
            w[a] = sol
        ws[tag] = w

    eq1 = np.array_equal(u_b ^ u_c, ws["B"] ^ ws["C"])
    eq2 = np.array_equal(gf2.mul(spp.source.h_z, u_c) ^ u_d,
                         gf2.mul(spp.source.h_z, ws["C"]))
    if not (eq1 and eq2):
        return SimpleNamespace(status="inequivalent", e_rs_x=None,
                               bound_ok=None)

    gr_j = gf2.right_inverse(f.g).T[spp.copy_j]
    e_jv = gf2.eye(f.k)[spp.copy_j]
    u_eff_b = gf2.mul(ws["B"] ^ up_b, gr_j) ^ gf2.mul(upp_b, e_jv)
    u_eff_c = gf2.mul(ws["C"] ^ up_c, gr_j) ^ gf2.mul(upp_c, e_jv)
    e_rs = np.concatenate([u_eff_b, u_eff_c])
    if not np.array_equal(gf2.mul(spp.rs.h_rs_z, e_rs), gf2.mul(spp.j_sp_z, e)):
        raise ltsp.ResourceStateError("X-residual equivalence identity failed")
    bound_ok = Fraction(int(gf2.weight(e_rs))) <= amp * gf2.weight(e)
    return SimpleNamespace(status="ok", e_rs_x=e_rs, bound_ok=bool(bound_ok))


def vector(lay, **parts):
    """A fault vector of the layout, zero outside the named groups."""
    v = np.zeros(lay.total, dtype=np.uint8)
    for name, arr in parts.items():
        v[lay.sl(name)] = arr
    return v


def ref_effective_z_error(tm, e_m_z):
    lay = tm.layout
    e = np.asarray(e_m_z, dtype=np.uint8)
    u_eff = np.zeros(tm.source.n, dtype=np.uint8)
    for name in ("A1", "A2", "B1", "C1", "C2", "C3"):
        u_eff = u_eff ^ lay.part(e, name)
    e_eff = vector(lay, C3=u_eff)
    if not np.array_equal(gf2.mul(tm.j_m_x, e_eff), gf2.mul(tm.j_m_x, e)):
        raise AssertionError("Z effective-error equivalence failed")
    return e_eff, gf2.weight(e_eff) <= gf2.weight(e)


def ref_effective_x_error(tm, e_m_x):
    lay = tm.layout
    e = np.asarray(e_m_x, dtype=np.uint8)
    u_a = lay.part(e, "A1") ^ lay.part(e, "B1") ^ lay.part(e, "B2")
    u_c = lay.part(e, "C1") ^ lay.part(e, "C2") ^ lay.part(e, "C3")
    e_eff = vector(lay, A1=u_a, C3=u_c)
    for m in (tm.j_m_z, tm.j_m_mz, tm.j_m_oc):
        if not np.array_equal(gf2.mul(m, e_eff), gf2.mul(m, e)):
            raise AssertionError("X effective-error equivalence failed")
    return e_eff, gf2.weight(e_eff) <= gf2.weight(e)


def _pad(e, width):
    return np.concatenate([np.asarray(e, dtype=np.uint8),
                           np.zeros(width - len(e), dtype=np.uint8)])


def ref_surgery_residual_z(run, e_before, e_after):
    lay = run.layout
    e = np.asarray(e_before, dtype=np.uint8) ^ vector(lay, M4=e_after)
    full = _pad(e, run.h_ls_x.shape[1])
    if gf2.mul(run.h_ls_x, full).any():
        raise ValueError("fault is detectable; lemma precondition violated")
    u_eff_m = lay.part(e, "M1") ^ lay.part(e, "M2") ^ lay.part(e, "M3")
    u_eff_a = lay.part(e, "A1") ^ lay.part(e, "A2")
    u_eff = np.concatenate([u_eff_m, u_eff_a])
    u_res = lay.part(e, "M4")
    dc = run.deformed
    if gf2.mul(dc.css.j_x, u_eff).any():
        return SimpleNamespace(status="failure", residual=None, bound_ok=None)
    want = gf2.mul(run.j_ls_x, full)
    got = gf2.mul(gf2.mul(dc.tilde_alpha_perp(), dc.tilde_j_x()), u_res)
    if not np.array_equal(want, got):
        raise AssertionError("residual decomposition identity failed")
    return SimpleNamespace(status="ok", residual=u_res,
                           bound_ok=gf2.weight(u_res) <= gf2.weight(e_after))


def ref_surgery_outcome_x(run, e_before, e_after):
    lay = run.layout
    e = np.asarray(e_before, dtype=np.uint8) ^ np.asarray(e_after, dtype=np.uint8)
    full = _pad(e, run.h_ls_z.shape[1])
    if gf2.mul(run.h_ls_z, full).any():
        raise ValueError("fault is detectable; lemma precondition violated")
    flip = gf2.mul(run.j_ls_oc, full)
    u_res = lay.part(e, "M2") ^ lay.part(e, "M3") ^ lay.part(e, "M4")
    return SimpleNamespace(outcome_correct=not flip.any(), residual=u_res,
                           bound_ok=gf2.weight(u_res) <= gf2.weight(e_after))


# ── fixtures and fault matrices ─────────────────────────────────────────


@pytest.fixture(scope="module")
def memory13():
    return codes.surface_code_via_hgp(3)


@pytest.fixture(scope="module")
def spp13(memory13):
    return ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j=1)


@pytest.fixture(scope="module")
def tm13(memory13):
    return protocol.build_tele_measurement(memory13)


@pytest.fixture(scope="module")
def run_pair(memory13):
    # The composite target tracks logicals, so "failure" rows exist.
    two = codes.direct_sum_css(memory13, memory13)
    dc = surgery.build_deformed(two, gf2.bitmat([[1, 1]]), codes.hamming_743())
    return protocol.build_surgery_circuit(dc)


def plain_row(kind, n, rng):
    e = np.zeros(n, dtype=np.uint8)
    if kind == "sparse":
        e[rng.choice(n, size=int(rng.integers(1, 4)), replace=False)] = 1
    elif kind == "dense":
        e[:] = rng.integers(0, 2, n)
    return e


def x_row(kind, spp, rng):
    """One spacetime X fault of the given kind (zero, sparse, dense,
    inequivalent or repaired)."""
    lay = spp.layout_x
    n_d, f = spp.source.n, spp.f
    if kind not in ("inequivalent", "repaired"):
        return plain_row(kind, lay.total, rng)
    e = vector(lay)
    a = int(rng.integers(n_d))
    if kind == "inequivalent":
        # A codeword of F on one B1 block passes every check round but
        # breaks the B/C equality.
        c = f.g[int(rng.integers(f.k))]
        e[lay.offsets["B1"] + np.nonzero(c)[0] * n_d + a] = 1
        return e
    # One flip pattern on block a of both parity rounds plus the readout
    # flips its minimum-weight preimage predicts: undetected and
    # equivalent.  Sparse B5/C5/B6/C6 bits give it a residual.
    r_f = f.h.shape[0]
    v = rng.integers(0, 2, r_f).astype(np.uint8)
    v[int(rng.integers(r_f))] = 1
    for tag in ("meaB", "meaC"):
        e[lay.offsets[tag] + np.arange(r_f) * n_d + a] = v
    w = gf2.solve_linear(f.h, v, mode="min_weight")
    e[lay.sl("D3")] = gf2.vec(np.outer(spp.source.h_z[:, a], w))
    for name in ("B5", "C5", "B6", "C6"):
        part = e[lay.sl(name)]
        part ^= (rng.random(part.size) < 0.05).astype(np.uint8)
    return e


def undetectable_rows(h, total, count, rng):
    """Random sums of about three kernel vectors of h's fault columns."""
    basis = gf2.null_space(h[:, :total])
    return gf2.mul(rng.random((count, len(basis))) < 3 / len(basis), basis)


def first_error(reference, rows):
    """The error a row-by-row run of the reference raises first, or None."""
    for row in rows:
        try:
            reference(row)
        except ERRORS as err:
            return err
    return None


def assert_raises_as(err, call):
    with pytest.raises(ERRORS) as got:
        call()
    assert type(got.value) is type(err) and str(got.value) == str(err)


KINDS_X = st.lists(st.sampled_from(
    ["zero", "sparse", "dense", "inequivalent", "repaired"]),
    min_size=1, max_size=10)
KINDS = st.lists(st.sampled_from(["zero", "sparse", "dense"]),
                 min_size=1, max_size=10)
SEED = st.integers(0, 2**32 - 1)


# ── ltsp ────────────────────────────────────────────────────────────────


def compare_x(spp, faults):
    err = first_error(lambda row: ref_check_x_bound(spp, row), faults)
    if err is not None:
        assert_raises_as(err, lambda: ltsp.check_x_bound(spp, faults))
        return None
    got = ltsp.check_x_bound(spp, faults)
    for i, row in enumerate(faults):
        want = ref_check_x_bound(spp, row)
        assert got.status[i] == want.status, i
        if want.status == "ok":
            assert np.array_equal(got.e_rs_x[i], want.e_rs_x), i
            assert got.bound_ok[i] == want.bound_ok, i
        else:
            assert not got.e_rs_x[i].any() and not got.bound_ok[i]
    return got


@SETTINGS
@given(kinds=KINDS_X, seed=SEED)
def test_check_x_bound_matches_rows(spp13, kinds, seed):
    rng = np.random.default_rng(seed)
    faults = np.array([x_row(k, spp13, rng) for k in kinds])
    got = compare_x(spp13, faults)
    want = {"zero": "ok", "inequivalent": "inequivalent", "repaired": "ok"}
    for k, status in zip(kinds, got.status):
        assert want.get(k, status) == status


def test_x_rows_cover_every_status(spp13):
    rng = np.random.default_rng(0)
    kinds = ["zero", "sparse", "inequivalent", "repaired"] * 5
    got = compare_x(spp13, np.array([x_row(k, spp13, rng) for k in kinds]))
    assert set(got.status) == {"ok", "detected", "inequivalent"}
    assert got.e_rs_x.any() and not got.bound_ok.all()


def corrupted(spp, how):
    """spp with one internal check made to fail on some faults."""
    bad = dataclasses.replace(spp, j_sp_z=spp.j_sp_z.copy())
    bad._amplification = spp.amplification()
    if how == "colsp":
        h = spp.f.h.copy()
        h[-1] = h[0] ^ h[1]
        bad.f = dataclasses.replace(spp.f, h=h)
    elif how == "bound":
        bad._amplification = Fraction(1, 10)
    else:
        bad.j_sp_z[0] ^= 1
    return bad


@SETTINGS
@given(kinds=KINDS_X, seed=SEED,
       how=st.sampled_from(["colsp", "bound", "identity"]))
def test_check_x_bound_raises_like_rows(spp13, kinds, seed, how):
    rng = np.random.default_rng(seed)
    faults = np.array([x_row(k, spp13, rng) for k in kinds + ["repaired"]])
    compare_x(corrupted(spp13, how), faults[rng.permutation(len(faults))])


@pytest.mark.parametrize("how", ["colsp", "bound", "identity"])
def test_each_corruption_raises(spp13, how):
    rng = np.random.default_rng(1)
    faults = np.array([x_row("repaired", spp13, rng) for _ in range(8)])
    bad = corrupted(spp13, how)
    err = first_error(lambda row: ref_check_x_bound(bad, row), faults)
    assert err is not None
    assert_raises_as(err, lambda: ltsp.check_x_bound(bad, faults))


@SETTINGS
@given(kinds=KINDS, seed=SEED, corrupt=st.booleans())
def test_check_z_bound_matches_rows(spp13, kinds, seed, corrupt):
    rng = np.random.default_rng(seed)
    spp = spp13
    if corrupt:
        spp = dataclasses.replace(spp13, j_sp_x=spp13.j_sp_x.copy())
        spp.j_sp_x[0] ^= 1
    faults = np.array([plain_row(k, spp.layout_z.total, rng) for k in kinds])
    err = first_error(lambda row: ref_check_z_bound(spp, row), faults)
    if err is not None:
        assert_raises_as(err, lambda: ltsp.check_z_bound(spp, faults))
        return
    e_rs, ok = ltsp.check_z_bound(spp, faults)
    for i, row in enumerate(faults):
        want_rs, want_ok = ref_check_z_bound(spp, row)
        assert np.array_equal(e_rs[i], want_rs) and ok[i] == want_ok


# ── ltsp unit tables ────────────────────────────────────────────────────


def standard_form(p):
    """The classical code with generator (E_k | P) and checks (Pᵀ | E_r)."""
    k, r = p.shape
    return codes.ClassicalCode(h=np.concatenate([p.T, gf2.eye(r)], axis=1),
                               g=np.concatenate([gf2.eye(k), p], axis=1),
                               n=k + r, k=k)


SOURCES = {"surface3": lambda: codes.surface_code_via_hgp(3),
           "steane": codes.steane}
TEST_CODES = st.one_of(
    st.sampled_from([codes.hamming_743, lambda: codes.repetition(3)]).map(
        lambda build: build()),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda kr: st.lists(st.integers(0, 1), min_size=kr[0] * kr[1],
                            max_size=kr[0] * kr[1]).map(
            lambda bits: standard_form(
                np.array(bits, dtype=np.uint8).reshape(kr)))))


def assert_units_match_identity(spp):
    """The unit batch (e=None) equals the dense eye(n) batch, field by
    field, for both kernels."""
    units = ltsp.check_z_bound(spp, None)
    dense = ltsp.check_z_bound(spp, gf2.eye(spp.layout_z.total))
    assert all(np.array_equal(a, b) for a, b in zip(units, dense))
    units = ltsp.check_x_bound(spp, None)
    dense = ltsp.check_x_bound(spp, gf2.eye(spp.layout_x.total))
    for fld in dataclasses.fields(ltsp.XBoundResult):
        assert np.array_equal(getattr(units, fld.name),
                              getattr(dense, fld.name)), fld.name


def equivalent_rows(spp, count, rng):
    """Undetected X faults that pass both test-code equalities, over every
    layout group: random sums of flip-free ones (the kernel of the syndrome,
    flips and targets, written from the layout groups as the references
    read them), each plus flips v on one block of meaB, of meaC or of both,
    with the faults their preimage w needs (w on B1 for one side only, and
    h_z's column ⊗ w on D3 for meaC)."""
    lay, n_d, h_z, h_f = spp.layout_x, spp.source.n, spp.source.h_z, spp.f.h
    e = gf2.eye(lay.total)
    u_c = gf2.unvec(lay.xor(e, "C3", "C4"), n_d)
    t_d = gf2.mul(h_z, u_c).swapaxes(1, 2).reshape(lay.total, -1)
    maps = np.concatenate([
        spp.h_sp_z.T, lay.part(e, "meaB"), lay.part(e, "meaC"),
        lay.xor(e, "B1", "B2", "B3", "B4", "C2", "C3", "C4"),
        t_d ^ lay.xor(e, "D1", "D2", "D3")], axis=1)
    rows = undetectable_rows(maps.T, lay.total, count, rng)
    for row in rows:
        a = int(rng.integers(n_d))
        sides = [["meaB"], ["meaC"], ["meaB", "meaC"]][int(rng.integers(3))]
        v = rng.integers(0, 2, len(h_f)).astype(np.uint8)
        v[int(rng.integers(len(h_f)))] = 1
        w = gf2.solve_linear(h_f, v, mode="min_weight")
        for tag in sides:
            row[lay.offsets[tag] + np.arange(len(h_f)) * n_d + a] ^= v
        if len(sides) == 1:
            row[lay.offsets["B1"] + np.flatnonzero(w) * n_d + a] ^= 1
        if "meaC" in sides:
            row[lay.sl("D3")] ^= gf2.vec(np.outer(h_z[:, a], w))
    return rows


@pytest.mark.parametrize("copy_j", range(4))
def test_desk_equivalent_rows_match_references(memory13, copy_j):
    spp = ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j)
    got = compare_x(spp, equivalent_rows(spp, 30, np.random.default_rng(copy_j)))
    assert (got.status == "ok").all() and got.e_rs_x.any()


@pytest.mark.parametrize("copy_j", range(4))
def test_desk_unit_batches_match_identity(memory13, copy_j):
    assert_units_match_identity(
        ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j))


@pytest.mark.parametrize("copy_j", range(4))
@pytest.mark.parametrize("seed", [0, 42, 2024])
def test_desk_pair_sets_match_dense_rows(memory13, set_rows, copy_j, seed):
    # The sweep's index pairs and the same pairs as dense rows give equal
    # results, field by field.
    spp = ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j)
    n = spp.layout_x.total
    with sim.checked_rng(seed, copy_j) as rng:
        pairs = gf2.fault_sets(rng, n, 500, 2)
    by_sets = ltsp.check_x_bound(spp, sets=pairs)
    by_rows = ltsp.check_x_bound(spp, set_rows(pairs, n))
    assert (by_sets.status != "detected").any()
    for fld in dataclasses.fields(ltsp.XBoundResult):
        assert np.array_equal(getattr(by_sets, fld.name),
                              getattr(by_rows, fld.name)), fld.name


def test_unit_batches_match_rows(spp13):
    # Every unit fault of a desk copy against the per-vector references.
    e_rs, ok = ltsp.check_z_bound(spp13, None)
    for i, row in enumerate(gf2.eye(spp13.layout_z.total)):
        want_rs, want_ok = ref_check_z_bound(spp13, row)
        assert np.array_equal(e_rs[i], want_rs) and ok[i] == want_ok
    got = ltsp.check_x_bound(spp13, None)
    for i, row in enumerate(gf2.eye(spp13.layout_x.total)):
        want = ref_check_x_bound(spp13, row)
        assert got.status[i] == want.status
        if want.status == "ok":
            assert np.array_equal(got.e_rs_x[i], want.e_rs_x)
            assert got.bound_ok[i] == want.bound_ok


@settings(max_examples=15, deadline=None)
@given(source=st.sampled_from(sorted(SOURCES)), f=TEST_CODES,
       data=st.data(), seed=SEED)
def test_unit_tables_on_code_families(source, f, data, seed):
    # Other sources and test codes (r_F = 1..3, flips that need a
    # preimage): the tables give the identity batch and the references.
    spp = ltsp.sp_matrices(SOURCES[source](), f,
                           data.draw(st.integers(0, f.k - 1)))
    assert_units_match_identity(spp)
    rng = np.random.default_rng(seed)
    kinds = ["zero", "sparse", "dense", "inequivalent", "repaired"] * 2
    compare_x(spp, np.array([x_row(k, spp, rng) for k in kinds]))
    assert (compare_x(spp, equivalent_rows(spp, 8, rng)).status == "ok").all()
    faults = np.array([plain_row(k, spp.layout_z.total, rng)
                       for k in ("zero", "sparse", "dense") * 2])
    e_rs, ok = ltsp.check_z_bound(spp, faults)
    for i, row in enumerate(faults):
        want_rs, want_ok = ref_check_z_bound(spp, row)
        assert np.array_equal(e_rs[i], want_rs) and ok[i] == want_ok


@pytest.mark.parametrize("name", ["j_sp_x", "j_sp_z", "f"])
def test_replaced_spp_builds_its_own_table(spp13, name):
    # The tables are built on first use from the fields as they are then,
    # so a copy corrupted after dataclasses.replace fails its identity
    # while the original, whose tables exist already, still passes.
    ltsp.check_z_bound(spp13, None)
    ltsp.check_x_bound(spp13, None)
    if name == "f":
        g = spp13.f.g.copy()
        g[spp13.copy_j, -1] ^= 1
        bad = dataclasses.replace(spp13, f=dataclasses.replace(spp13.f, g=g))
    else:
        bad = dataclasses.replace(spp13, **{name: getattr(spp13, name).copy()})
        getattr(bad, name)[0] ^= 1
    kernel, says = ((ltsp.check_x_bound, "X-residual equivalence identity")
                    if name == "j_sp_z" else
                    (ltsp.check_z_bound, "Z-residual equivalence identity"))
    with pytest.raises(ltsp.ResourceStateError, match=says):
        kernel(bad, None)
    assert bad.z_units() is not spp13.z_units()
    assert bad.x_units() is not spp13.x_units()
    assert_units_match_identity(spp13)


def test_preimages_read_from_one_table(spp13, monkeypatch):
    rng = np.random.default_rng(7)
    faults = np.array([x_row(k, spp13, rng)
                       for k in ["repaired"] * 12 + ["sparse"] * 20])
    tables = []
    real = gf2.syndrome_tables
    monkeypatch.setattr(gf2, "syndrome_tables", lambda *a: (
        tables.append(a) or real(*a)))

    def no_solve(*args, **kwargs):
        raise AssertionError("check_x_bound must not call solve_linear")

    monkeypatch.setattr(gf2, "solve_linear", no_solve)
    # No undetected unit fault of a desk copy has flips: no table is built.
    assert (ltsp.check_x_bound(spp13, None).status != "detected").any()
    assert tables == []
    res = ltsp.check_x_bound(spp13, faults)
    lay, n_d = spp13.layout_x, spp13.source.n
    flips = [gf2.unvec(lay.part(row, tag), n_d).any()
             for row in faults[res.status != "detected"]
             for tag in ("meaB", "meaC")]
    assert any(flips) and len(tables) == 1
    assert tables[0][0] is spp13.f.h and tables[0][1] == spp13.f.n


def test_sweeps_build_no_identity_of_the_layout(memory13, monkeypatch):
    spp = ltsp.sp_matrices(memory13, codes.hamming_743(), copy_j=2)
    sizes = []
    real = gf2.eye
    monkeypatch.setattr(gf2, "eye", lambda n: sizes.append(n) or real(n))
    ltsp.sweep_z_lemma(spp, max_weight=2)
    ltsp.sweep_x_lemma(spp, max_weight=1, samples=50, seed=1)
    assert sizes and max(sizes) < spp.layout_z.total


# ── teleported measurement ──────────────────────────────────────────────


@SETTINGS
@given(kinds=KINDS, seed=SEED, corrupt=st.booleans(),
       basis=st.sampled_from(["Z", "X"]))
def test_effective_errors_match_rows(tm13, kinds, seed, corrupt, basis):
    rng = np.random.default_rng(seed)
    tm = tm13
    if corrupt:
        name = "j_m_x" if basis == "Z" else "j_m_oc"
        tm = dataclasses.replace(tm13, **{name: getattr(tm13, name).copy()})
        getattr(tm, name)[0] ^= 1
    kernel, ref = {"Z": (protocol.effective_z_error, ref_effective_z_error),
                   "X": (protocol.effective_x_error, ref_effective_x_error)}[basis]
    faults = np.array([plain_row(k, tm.layout.total, rng) for k in kinds])
    err = first_error(lambda row: ref(tm, row), faults)
    if err is not None:
        assert_raises_as(err, lambda: kernel(tm, faults))
        return
    e_eff, ok = kernel(tm, faults)
    for i, row in enumerate(faults):
        want_eff, want_ok = ref(tm, row)
        assert np.array_equal(e_eff[i], want_eff) and ok[i] == want_ok


# ── surgery ─────────────────────────────────────────────────────────────


@SETTINGS
@given(count=st.integers(1, 8), seed=SEED,
       detectable=st.sampled_from([None, 0, -1]), corrupt=st.booleans())
def test_surgery_residual_z_matches_rows(run_pair, count, seed, detectable,
                                         corrupt):
    rng = np.random.default_rng(seed)
    run = run_pair
    if corrupt:
        run = dataclasses.replace(run_pair, j_ls_x=run_pair.j_ls_x.copy())
        run.j_ls_x[0] ^= 1
    lay = run.layout
    before = undetectable_rows(run.h_ls_x, lay.total, count, rng)
    before[:, lay.sl("M4")] = 0
    if detectable is not None:
        before[detectable] = plain_row("sparse", lay.total, rng)
    after = (rng.random((count, run.n_mem)) < 0.05).astype(np.uint8)
    pairs = list(zip(before, after))
    err = first_error(lambda p: ref_surgery_residual_z(run, *p), pairs)
    if err is not None:
        assert_raises_as(err, lambda: protocol.surgery_residual_z(
            run, before, after))
        return
    got = protocol.surgery_residual_z(run, before, after)
    for i, (b, a) in enumerate(pairs):
        want = ref_surgery_residual_z(run, b, a)
        assert got.status[i] == want.status
        if want.status == "ok":
            assert np.array_equal(got.residual[i], want.residual)
            assert got.bound_ok[i] == want.bound_ok
        else:
            assert not got.residual[i].any() and not got.bound_ok[i]


def test_surgery_rows_cover_both_statuses(run_pair):
    rng = np.random.default_rng(2)
    lay = run_pair.layout
    before = undetectable_rows(run_pair.h_ls_x, lay.total, 40, rng)
    before[:, lay.sl("M4")] = 0
    got = protocol.surgery_residual_z(run_pair, before,
                                      gf2.zeros(40, run_pair.n_mem))
    assert set(got.status) == {"ok", "failure"}


@SETTINGS
@given(count=st.integers(1, 8), seed=SEED,
       detectable=st.sampled_from([None, 0, -1]))
def test_surgery_outcome_x_matches_rows(run_pair, count, seed, detectable):
    rng = np.random.default_rng(seed)
    run = run_pair
    lay = run.layout
    faults = undetectable_rows(run.h_ls_z, lay.total, count, rng)
    if detectable is not None:
        faults[detectable] = plain_row("sparse", lay.total, rng)
    cut = rng.integers(0, 2, lay.total).astype(np.uint8)
    before, after = faults & cut, faults & (1 - cut)
    pairs = list(zip(before, after))
    err = first_error(lambda p: ref_surgery_outcome_x(run, *p), pairs)
    if err is not None:
        assert_raises_as(err, lambda: protocol.surgery_outcome_x(
            run, before, after))
        return
    got = protocol.surgery_outcome_x(run, before, after)
    for i, (b, a) in enumerate(pairs):
        want = ref_surgery_outcome_x(run, b, a)
        assert got.outcome_correct[i] == want.outcome_correct
        assert np.array_equal(got.residual[i], want.residual)
        assert got.bound_ok[i] == want.bound_ok
