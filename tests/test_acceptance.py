"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds, so running
``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from qcompat import cli
from qcompat import compat as cp
from qcompat import devices as dv
from qcompat import dilation as dl
from qcompat import feasibility as fs
from qcompat import memo as mm
from qcompat import order as od
from qcompat.devices import CPMap, Effect, Instrument, KrausSet, choi_from_kraus
from qcompat.fixtures import (
    I2,
    PMX,
    PMZ,
    PX,
    PZ,
    SX,
    SZ,
    builtin_devices,
    effect,
    half_sigma_x,
    luders_of,
    px_dephasing_channel,
)

from conftest import (
    hermitian_basis,
    rand_complex,
    rand_cpmap,
    rand_effect,
    rand_herm,
    rand_instrument,
    rand_kraus,
    rand_state,
)

DEV = builtin_devices()
WTOL = cp.witness_tolerances(cp.DEFAULT_TOL)


def ok(n, message):
    print(f"criterion {n:02d}: PASS - {message}")


def test_criterion_01_op_op_weak_pair():
    """Lueders-Px vs half-sigma-x: incompatible but weakly compatible."""
    verdict = cp.classify(DEV["luders_px"], DEV["half_sigma_x"])
    assert verdict.relation == "weakly_compatible_only"
    lam = verdict.witness.common_channel

    # witness channel re-validates as a common upper channel
    assert lam.is_trace_preserving(WTOL)
    assert od.cp_leq(DEV["luders_px"], lam, WTOL)
    assert od.cp_leq(DEV["half_sigma_x"], lam, WTOL)

    # and in fact agrees with rho/2 + sx rho sx / 2 on the Pauli basis
    canonical = px_dephasing_channel()
    agrees = all(
        np.linalg.norm(dv.apply_s(lam, t) - dv.apply_s(canonical, t)) <= 1e-7
        for t in hermitian_basis(2)
    )
    assert agrees or (
        od.cp_leq(DEV["luders_px"], lam, WTOL)
        and od.cp_leq(DEV["half_sigma_x"], lam, WTOL)
    )
    ok(1, "operation pair is weakly compatible only, witness channel re-validated")


def test_criterion_02_op_op_strong_pair_dual_path():
    """Lueders-Px vs Lueders-Pz: strongly incompatible, two independent routes."""
    verdict = cp.classify(DEV["luders_px"], DEV["luders_pz"])
    assert verdict.relation == "strongly_incompatible"

    # route 1: feasibility engine on the weak problem, fast paths not involved
    out = fs.solve(cp.weak_problem(DEV["luders_px"], DEV["luders_pz"]))
    assert out.verdict == "infeasible"
    assert out.margin < -1e-7

    # route 2: the analytic one-parameter channel-family oracle
    overlap = od.rank1_upper_channels_equal(DEV["luders_px"], DEV["luders_pz"])
    assert overlap.equal is False
    ok(2, f"strong incompatibility confirmed by engine (margin {out.margin:.3e}) and family oracle")


def test_criterion_03_effect_operation_weak_pair():
    verdict = cp.classify(DEV["px"], DEV["luders_pz"])
    assert verdict.relation == "weakly_compatible_only"
    ok(3, "Px vs Lueders-Pz classified weakly compatible only")


def test_criterion_04_effect_operation_strong_pair():
    verdict = cp.classify(DEV["px"], DEV["luders_biased_z"])
    assert verdict.relation == "strongly_incompatible"
    ok(4, "Px vs biased-z Lueders operation classified strongly incompatible")


def test_criterion_05_relation_table(capsys):
    code = cli.main(["table1"])
    captured = capsys.readouterr()
    assert code == 0
    rows = [
        ln for ln in captured.out.splitlines()
        if ln.startswith(("compatible", "incompatible", "strongly"))
        and ("✓" in ln or "×" in ln)
    ]
    assert len(rows) == 3
    assert rows[0].count("✓") == 3 and "×" not in rows[0]
    assert rows[1].count("✓") == 3 and "×" not in rows[1]
    assert rows[2].count("✓") == 2 and rows[2].count("×") == 1
    assert "?" not in captured.out

    # structural impossibility: effect pairs never classify strongly incompatible
    rng = np.random.default_rng(2024)
    checked = 0
    for k in range(500):
        style = k % 4
        if style == 0:
            basis = np.linalg.qr(rand_complex(rng, 2))[0]
            d1 = np.clip(rng.uniform(0, 1, 2), 0, 1)
            d2 = np.clip(rng.uniform(0, 1, 2), 0, 1)
            e1 = Effect(basis @ np.diag(d1) @ basis.conj().T)
            e2 = Effect(basis @ np.diag(d2) @ basis.conj().T)
        elif style == 1:
            e1, e2 = rand_effect(rng, 2), rand_effect(rng, 2)
            scale = 0.99 / max(
                1.0, np.linalg.eigvalsh(e1.matrix + e2.matrix)[-1]
            )
            e1, e2 = Effect(scale * e1.matrix), Effect(scale * e2.matrix)
        elif style == 2:
            v = rand_complex(rng, 2, 1)[:, 0]
            v /= np.linalg.norm(v)
            e1 = Effect(np.outer(v, v.conj()))
            e2 = rand_effect(rng, 2)
        else:
            e1, e2 = rand_effect(rng, 2), rand_effect(rng, 2)
        relation = cp.classify(e1, e2).relation
        assert relation != "strongly_incompatible"
        checked += 1
    assert checked == 500
    ok(5, "table pattern reproduced; 500 effect pairs never strongly incompatible")


def test_criterion_06_transposition_counterexample():
    j1 = np.kron(I2, I2) / 3
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1
            swap += np.kron(eij, eij.T)
    phi1 = CPMap(2, 2, j1)
    phi2 = CPMap(2, 2, (np.kron(I2, I2) + swap) / 3, kind="channel")
    assert not od.cp_leq(phi1, phi2)

    rng = np.random.default_rng(606)
    for _ in range(200):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        diff = dv.apply_s(phi2, rho) - dv.apply_s(phi1, rho)
        assert np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0] >= -1e-10
    ok(6, "difference is positive on 200 pure states yet not completely positive")


def test_criterion_07_oracle_equivalence_200_pure_pairs():
    rng = np.random.default_rng(707)
    disagreements = 0
    undecided = 0
    compatible_count = 0
    for _ in range(200):
        s1 = np.sqrt(rng.uniform(0.25, 1.0))
        s2 = np.sqrt(rng.uniform(0.25, 1.0))
        f1 = choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=s1))
        f2 = choi_from_kraus(rand_kraus(rng, 2, 2, 1, scale=s2))
        oracle = od.pure_pair_compatible(f1, f2)
        out = fs.solve(cp.joint_problem(f1, f2))
        if out.verdict == "undecided":
            undecided += 1
            continue
        engine = out.verdict == "feasible"
        if engine != oracle:
            disagreements += 1
        if oracle:
            compatible_count += 1
    assert undecided == 0
    assert disagreements == 0
    assert 0 < compatible_count < 200  # both outcomes exercised
    ok(7, f"engine matches the pure-pair oracle on 200 pairs ({compatible_count} compatible)")


def test_criterion_08_duality_and_roundtrip_suites():
    rng = np.random.default_rng(808)
    basis2 = hermitian_basis(2)
    basis3 = hermitian_basis(3)
    for k in range(100):
        din, dout = (2, 2) if k % 2 == 0 else (2, 3)
        m = rand_cpmap(rng, din, dout, n_ops=1 + k % 3, channel=(k % 5 == 0))
        rho = rand_herm(rng, din)
        t = rand_herm(rng, dout)
        lhs = np.trace(dv.apply_s(m, rho) @ t)
        rhs = np.trace(rho @ dv.apply_h(m, t))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

        back = dv.choi_from_kraus(dv.kraus_from_choi(m))
        basis = basis2 if din == 2 else basis3
        for b in basis:
            assert np.linalg.norm(dv.apply_s(m, b) - dv.apply_s(back, b)) <= 1e-9

    for _ in range(100):
        t = rand_complex(rng, 3)
        coeffs, effects = dv.four_effect_decomposition(t)
        resum = sum(c * e.matrix for c, e in zip(coeffs, effects))
        assert np.linalg.norm(resum - t) <= 1e-10 * (1.0 + np.linalg.norm(t))
    ok(8, "duality, Kraus-Choi roundtrip, and four-effect resum within tolerance")


def test_criterion_09_radon_nikodym_inversion():
    rng = np.random.default_rng(909)
    recovered = 0
    for _ in range(50):
        lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
        dil = dl.minimal_stinespring(lam)
        da = dil.ancilla_dim
        h = rand_herm(rng, da)
        evals, vecs = np.linalg.eigh(h)
        spec = 0.1 + 0.8 * (evals - evals[0]) / max(evals[-1] - evals[0], 1e-12)
        e0 = (vecs * spec) @ vecs.conj().T
        f = dl.map_from_ancilla_effect(dil, e0)
        e = dl.radon_nikodym_effect(dil, f)
        assert np.linalg.norm(e.matrix - e0) <= 1e-8
        recovered += 1
    assert recovered == 50

    raised = 0
    for _ in range(50):
        lam = rand_cpmap(rng, 2, 2, n_ops=2, channel=True)
        dil = dl.minimal_stinespring(lam)
        da = dil.ancilla_dim
        h = rand_herm(rng, da)
        evals, vecs = np.linalg.eigh(h)
        spec = 0.2 + 0.6 * (evals - evals[0]) / max(evals[-1] - evals[0], 1e-12)
        e0 = (vecs * spec) @ vecs.conj().T
        f0 = dl.map_from_ancilla_effect(dil, e0)
        shrunk = CPMap(2, 2, 0.4 * f0.choi)
        gap = (lam.choi - shrunk.choi + (lam.choi - shrunk.choi).conj().T) / 2
        gvals, gvecs = np.linalg.eigh(gap)
        v = gvecs[:, 0]
        eps = max(float(gvals[0]), 0.0) + 0.02
        bad = CPMap(2, 2, shrunk.choi + eps * np.outer(v, v.conj()))
        with pytest.raises(dl.NotDominatedError):
            dl.radon_nikodym_effect(dil, bad)
        raised += 1
    assert raised == 50
    ok(9, "50 extractions recovered the planted effect; 50 non-dominated maps rejected")


def test_criterion_10_model_synthesis_faithfulness():
    rng = np.random.default_rng(1010)
    for k in range(50):
        n_out = 2 + k % 3  # up to 4 outcomes
        if k % 10 == 9:
            n_out = 4
        din = 2 + (k % 4 == 3)  # mostly qubits, some qutrits
        dout = din if k % 3 else 2
        ins = rand_instrument(rng, din, dout, n_out=n_out, ops_per_branch=1 + k % 2)
        model = mm.synthesize_model(ins)
        induced = mm.model_instrument(model)
        for x in ins.outcomes:
            assert np.linalg.norm(induced.branches[x].choi - ins.branches[x].choi) <= 1e-8

        rho = rand_state(rng, din)
        total = sum(mm.model_probability(model, rho, (x,)) for x in model.outcomes())
        assert abs(total - 1.0) <= 1e-10

        # pointer independence of the induced channel, exactly
        flat = dv.trivial_observable(
            {x: 1.0 / len(model.outcomes()) for x in model.outcomes()}, dim=model.dim_v2
        )
        sibling = mm.MeasurementModel(
            model.dim_in, model.dim_out, model.dim_v1, model.dim_v2,
            model.eta, model.u, flat,
        )
        assert np.array_equal(
            mm.model_channel(model).choi, mm.model_channel(sibling).choi
        )
    ok(10, "50 synthesized models reproduce their instruments; channels pointer-independent")


def test_criterion_11_shared_model_for_weak_pair():
    # the canonical witness instruments of the weak operation pair:
    # branches (phi_i, Lambda - phi_i) below the common x-dephasing channel
    lam = px_dephasing_channel()
    phi1 = DEV["luders_px"]
    phi2 = DEV["half_sigma_x"]
    i1 = Instrument(
        ("0", "1"),
        {"0": phi1, "1": CPMap(2, 2, lam.choi - phi1.choi)},
    )
    i2 = Instrument(
        ("0", "1"),
        {"0": phi2, "1": CPMap(2, 2, lam.choi - phi2.choi)},
    )
    m1, m2 = mm.shared_model_pair(i1, i2)

    assert m1.u.tobytes() == m2.u.tobytes()
    assert m1.eta.tobytes() == m2.eta.tobytes()
    pointers_differ = any(
        not np.allclose(
            m1.pointer.effects[x].matrix, m2.pointer.effects[x].matrix, atol=1e-12
        )
        for x in m1.pointer.outcomes
    )
    assert pointers_differ

    for model, ins in ((m1, i1), (m2, i2)):
        induced = mm.model_instrument(model)
        for x in ins.outcomes:
            assert np.linalg.norm(induced.branches[x].choi - ins.branches[x].choi) <= 1e-8
    ok(11, "shared (probe, coupling) realize both weak-pair instruments; pointers differ")
