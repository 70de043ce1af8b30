"""End-to-end acceptance gate.

Each test prints a single "ACCEPTANCE <n>: PASS/FAIL" line (outside pytest's
capture, so the lines survive into piped logs) and then asserts.  Every
geometric phase is scored on the route the CLI ships: closed-form path
families (``ClosedFormPath``) through ``family_z``, joint dynamics through
``spectral_conditional_trajectories`` and redecompositions through
``decomposition_check``.  Criterion 5 checks the exact two-branch dephasing
moments against the first-order reference formulas shipped with the model
layer; the exact computation disagrees with those reference formulas by a
factor close to pi in the alpha-linear real correction, so that criterion
fails by design of the reference, not by a numerical defect.  The adjacent
criterion 6 bounds the same quantity to within a factor 4 and passes.
"""

import numpy as np
import pytest

from gpdist.channels import (
    ReservoirSpec,
    SystemEnsemble,
    apply_kraus,
    integrate_lindblad,
    spectral_conditional_trajectories,
)
from gpdist.distribution import (
    DECOMPOSITION_SEEDS,
    build_distribution,
    decomposition_check,
    moments,
)
from gpdist.errors import RCondViolated
from gpdist.hilbert import SIGMA_X, eigh_hermitian
from gpdist.models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    _se_no_jump_diagonals,
    closed_system_gp,
    h_system,
    pd_first_order_references,
    pd_kraus_channel,
    pd_lindblad_model,
    pd_moments,
    pd_weak_coupling_model,
    psi_initial,
    se_distribution,
    se_kraus_channel,
    se_lindblad_model,
    se_mean_gp_zero_temperature,
    se_perturbative_gp,
    se_weak_coupling_model,
)
from gpdist.phase import ClosedFormPath, angle_to_positive_branch, family_z
from gpdist.weakcoupling import WeakCouplingModel

OMEGA = 1.0


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def precession_path(*thetas, t_end=2.0 * np.pi):
    """Closed precession of psi_initial(theta) under H_S, one member per
    theta: psi(t) = e^{rates t} psi(0) with rates = -i diag(H_S), and the
    exact derivative rates * psi."""
    amps = np.array([psi_initial(th) for th in thetas])
    rates = -1j * np.diag(h_system(OMEGA))

    def states(t):
        psi = amps[:, None, :] * np.exp(np.outer(t, rates))
        return psi, rates * psi

    return ClosedFormPath(states=states, t_end=t_end)


def se_no_jump_path(p):
    """K0(t)|psi_S> from the model's no-jump diagonals; each diagonal entry
    is e^{rate t}, so the derivative is rates * psi."""
    psi0 = psi_initial(p.theta)
    rates = np.array([-0.5j * p.omega, 0.5j * p.omega - p.gamma_n])

    def states(t):
        psi = _se_no_jump_diagonals(p, t)[0] * psi0
        return psi[None], (rates * psi)[None]

    return ClosedFormPath(states=states, t_end=p.period)


def joint_family(model, psi_s):
    """The CLI's conditional-path family of a weak-coupling model over one
    period, with its weights, and U(T) from the same spectrum."""
    lam, v = eigh_hermitian(model.h0() + model.h_interaction())
    t = 2.0 * np.pi / OMEGA
    family = spectral_conditional_trajectories(
        (lam, v), model.res, SystemEnsemble.pure(psi_s), t)
    return family, (v * np.exp(-1j * (t * lam))) @ v.conj().T


def joint_qubit_model(g, bath_omega=2.0, probs=(0.7, 0.3)):
    """System qubit coupled by -g sx x sx to a two-level reservoir."""
    res = ReservoirSpec(probs=list(probs), states=np.eye(2, dtype=complex),
                        energies=[0.0, bath_omega])
    return WeakCouplingModel(
        hs=h_system(OMEGA), couplings=[(g * SIGMA_X, SIGMA_X)], res=res)


def test_criterion_01_closed_system_gp(capsys):
    thetas = (np.pi / 6, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
    z, _, _ = family_z(precession_path(*thetas))
    worst = max(abs(angle_to_positive_branch(b) - closed_system_gp(th))
                for th, b in zip(thetas, np.angle(z)))
    report(capsys, 1, worst < 1e-6,
           f"closed-system GP at 4 angles, worst error {worst:.3e} "
           "(budget 1e-06)")


def test_criterion_02_zero_temperature_closed_form(capsys):
    worst_closed, worst_numeric = 0.0, 0.0
    for theta in (np.pi / 4, 2.0 * np.pi / 5):
        p = TwoLevelAtomParams(omega=OMEGA, gamma0=0.05, theta=theta)
        rate = p.gamma0 / p.omega
        s2 = np.sin(theta / 2.0) ** 2
        avg = s2 * np.exp(2.0 * np.pi * rate) \
            + (1.0 - s2) * np.exp(-2.0 * np.pi * rate)
        ref = np.pi + 0.5 / rate * np.log(avg)
        worst_closed = max(worst_closed,
                           abs(se_mean_gp_zero_temperature(p) - ref))
        (z,), _, _ = family_z(se_no_jump_path(p))
        beta = angle_to_positive_branch(np.angle(z))
        worst_numeric = max(worst_numeric, abs(beta - ref))
    ok = worst_closed < 1e-10 and worst_numeric < 1e-6
    report(capsys, 2, ok,
           f"zero-temperature GP closed form: closed {worst_closed:.3e} "
           f"(budget 1e-10), numeric no-jump path {worst_numeric:.3e} "
           "(budget 1e-06)")


def _se_exact_gp(p):
    pz = se_distribution(p)
    return angle_to_positive_branch(
        float(np.angle(moments(pz).first_z)))


def test_criterion_03_perturbative_residual_scaling(capsys):
    residuals = {}
    ok = True
    for rate in (1e-2, 1e-3):
        p = TwoLevelAtomParams(omega=OMEGA, gamma0=rate, theta=np.pi / 2)
        res = abs(_se_exact_gp(p) - se_perturbative_gp(p))
        residuals[rate] = res
        ok = ok and res <= 100.0 * rate**2
    shrink = residuals[1e-2] / residuals[1e-3]
    ok = ok and shrink >= 50.0
    report(capsys, 3, ok,
           f"first-order GP residuals {residuals[1e-2]:.3e} / "
           f"{residuals[1e-3]:.3e} within 100*rate^2, shrink factor "
           f"{shrink:.0f} (need >= 50)")


def test_criterion_04_temperature_independence(capsys):
    rate = 1e-3
    perts, diffs = [], []
    for n in (0.0, 1.0, 5.0):
        p = TwoLevelAtomParams(omega=OMEGA, gamma0=rate, n_thermal=n,
                               theta=np.pi / 2)
        perts.append(se_perturbative_gp(p))
        diffs.append(abs(_se_exact_gp(p) - perts[-1]))
    pert_spread = max(perts) - min(perts)
    ok = pert_spread < 1e-12 and max(diffs) <= 100.0 * rate**2
    report(capsys, 4, ok,
           f"first-order GP temperature independent (spread "
           f"{pert_spread:.1e}), exact deviations at n=0,1,5 worst "
           f"{max(diffs):.3e} (budget 1e-04)")


def test_criterion_05_dephasing_first_order_references(capsys):
    # exact two-branch moments vs the shipped first-order reference
    # formulas; the exact alpha-linear real correction carries an extra
    # factor close to pi, so this criterion fails (see module docstring)
    al = 1e-3
    details, ok = [], True
    for theta in (np.pi / 4, np.pi / 2):
        p = PhaseDampingParams(omega=OMEGA, alpha=al, theta=theta)
        m = pd_moments(p)
        _, ref_h, ref_w = pd_first_order_references(p)
        b0 = np.exp(1j * closed_system_gp(theta))
        corr_exact = m.mean_gp_h - b0
        corr_ref = ref_h - b0
        rel = abs(corr_exact - corr_ref) / abs(corr_ref)
        w_rel = abs(m.spread_w - ref_w) / ref_w
        ok = ok and rel <= 0.10 and w_rel <= 0.20
        details.append(f"theta={theta:.3f}: correction rel err {rel:.2f} "
                       f"(budget 0.10), spread rel err {w_rel:.2f} "
                       f"(budget 0.20), W ratio "
                       f"{m.spread_w / ref_w:.3f}")
    report(capsys, 5, ok, "; ".join(details))


def test_criterion_06_measure_difference_order(capsys):
    al, theta = 1e-2, np.pi / 4
    p = PhaseDampingParams(omega=OMEGA, alpha=al, theta=theta)
    m = pd_moments(p)
    measured = abs(m.first_z / abs(m.first_z) - m.mean_gp_h) / al
    predicted = 8.0 * np.pi**2 / 9.0 * np.sin(theta) ** 4
    ratio = measured / predicted
    ok = 0.25 <= ratio <= 4.0
    report(capsys, 6, ok,
           f"Z-vs-H first-moment gap per unit rate {measured:.3f}, "
           f"reference {predicted:.3f}, ratio {ratio:.2f} "
           "(must lie in [0.25, 4])")


def test_criterion_07_channels_match_integrator(capsys):
    worst = {}
    cases = {
        "amplitude": (
            se_kraus_channel(TwoLevelAtomParams(omega=OMEGA, gamma0=0.05,
                                                n_thermal=0.5)),
            se_lindblad_model(TwoLevelAtomParams(omega=OMEGA, gamma0=0.05,
                                                 n_thermal=0.5)),
            psi_initial(np.pi / 3),
        ),
        "dephasing": (
            pd_kraus_channel(PhaseDampingParams(omega=OMEGA, alpha=0.05)),
            pd_lindblad_model(PhaseDampingParams(omega=OMEGA, alpha=0.05)),
            psi_initial(np.pi / 3),
        ),
    }
    for name, (channel, model, psi) in cases.items():
        rho0 = np.outer(psi, psi.conj())
        times, rhos = integrate_lindblad(model, rho0, 2.0 * np.pi / OMEGA,
                                         4096)
        err = max(
            np.linalg.norm(apply_kraus(channel, rho0, times[k])
                           - rhos[k])
            for k in range(0, 4097, 256))
        worst[name] = err
    ok = all(v < 1e-6 for v in worst.values())
    report(capsys, 7, ok,
           "operator-sum vs master-equation Frobenius gap: "
           + ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
           + " (budget 1e-06)")


def test_criterion_08_channel_positivity(capsys):
    channels = [
        se_kraus_channel(TwoLevelAtomParams(omega=OMEGA, gamma0=0.08,
                                            n_thermal=1.3)),
        pd_kraus_channel(PhaseDampingParams(omega=OMEGA, alpha=0.2)),
    ]
    psi = psi_initial(np.pi / 3)
    rho0 = np.outer(psi, psi.conj())
    rng = np.random.default_rng(5)
    worst_defect, min_eig = 0.0, 0.0
    for ch in channels:
        for t in rng.uniform(0.0, 2.0 * np.pi, size=20):
            worst_defect = max(worst_defect, ch.completeness_defect(t))
            eigs = np.linalg.eigvalsh(apply_kraus(ch, rho0, t))
            min_eig = min(min_eig, float(eigs.min()))
    ok = worst_defect < 1e-12 and min_eig >= -1e-9
    report(capsys, 8, ok,
           f"completeness defect {worst_defect:.3e} (budget 1e-12), "
           f"smallest output eigenvalue {min_eig:.3e} (floor -1e-09)")


def test_criterion_09_decomposition_freedom(capsys):
    g, om_r = 0.2, 1.5
    energies = np.array([0.0, om_r, om_r, 2.0 * om_r])
    res = ReservoirSpec(probs=[0.4, 0.35, 0.15, 0.1],
                        states=np.eye(4, dtype=complex), energies=energies)
    rng0 = np.random.default_rng(7)
    w = rng0.normal(size=(4, 4)) + 1j * rng0.normal(size=(4, 4))
    w = 0.5 * (w + w.conj().T)
    model = WeakCouplingModel(hs=h_system(OMEGA),
                              couplings=[(g * w, SIGMA_X)], res=res)
    _, u_fin = joint_family(model, psi_initial(np.pi / 3))
    shift_z, shift_h = decomposition_check(res, psi_initial(np.pi / 3), u_fin,
                                           seed=0)
    ok = shift_z < 1e-9 and shift_h > 1e-6
    report(capsys, 9, ok,
           f"{DECOMPOSITION_SEEDS} degenerate-block redecompositions: Z first "
           f"moment shifts by at most {shift_z:.3e} (budget 1e-09), H first "
           f"moment moves by up to {shift_h:.3e} (must exceed 1e-06)")


def gauged(path, alpha, alpha_dot):
    """``path`` in the gauge psi -> e^{i alpha(t)} psi, whose derivative is
    e^{i alpha} (psi' + i alpha' psi)."""
    def states(t):
        psi, dpsi = path.states(t)
        phase = np.exp(1j * alpha(t))[:, None]
        return phase * psi, phase * (dpsi + 1j * alpha_dot(t)[:, None] * psi)

    return ClosedFormPath(states=states, t_end=path.t_end)


def test_criterion_10_gauge_invariance_and_sharpness(capsys):
    path = precession_path(np.pi / 3)
    (z0,), _, _ = family_z(path)
    rng = np.random.default_rng(11)
    worst, x = 0.0, 1.0 / (2.0 * np.pi)
    for _ in range(10):
        c = rng.normal(scale=0.3, size=3)
        (z,), _, _ = family_z(gauged(
            path, lambda t, c=c: c[0] + c[1] * x * t + c[2] * (x * t) ** 2,
            lambda t, c=c: c[1] * x + 2.0 * c[2] * x * x * t))
        worst = max(worst, abs(z - z0))
    # a reservoir prepared in a single pure state yields one conditional
    # branch, hence an exactly sharp distribution
    family, _ = joint_family(joint_qubit_model(0.2, probs=(1.0, 0.0)),
                             psi_initial(np.pi / 3))
    rep = moments(build_distribution(*family))
    ok = worst < 1e-8 and rep.spread_w == 0.0
    report(capsys, 10, ok,
           f"10 random smooth gauges move Z by at most {worst:.3e} "
           f"(budget 1e-08); pure-reservoir spread {rep.spread_w!r} "
           "(must be exactly 0.0)")


def test_criterion_11_diagonal_coupling_guard(capsys):
    pd_model = pd_weak_coupling_model(PhaseDampingParams(omega=OMEGA,
                                                         alpha=0.01))
    with pytest.raises(RCondViolated):
        pd_model.require_rcond()
    se_model = se_weak_coupling_model(TwoLevelAtomParams(omega=OMEGA,
                                                         gamma0=1e-3))
    se_model.require_rcond()
    report(capsys, 11, True,
           "thermal dephasing coupling rejected (diagonal reservoir matrix "
           "elements), energy-exchange coupling accepted")


def test_criterion_12_measure_gap_scales_faster(capsys):
    beta0 = closed_system_gp(np.pi / 3)
    diffs, leads = [], []
    for lam in (1.0, 0.5, 0.25):
        family, _ = joint_family(joint_qubit_model(0.2 * lam),
                                 psi_initial(np.pi / 3))
        rep = moments(build_distribution(*family))
        # unit-modulus mean under the Z measure vs the contracted H moment
        diffs.append(abs(np.exp(1j * rep.mean_gp_z) - rep.mean_gp_h))
        leads.append(abs(angle_to_positive_branch(rep.mean_gp_z) - beta0))
    diff_ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    lead_ratios = [leads[i] / leads[i + 1] for i in range(2)]
    # halving the coupling: the Z-vs-H gap drops ~16x (quartic) while the
    # leading shift drops ~4x (quadratic)
    ok = all(8.0 <= r <= 32.0 for r in diff_ratios) \
        and all(2.8 <= r <= 6.0 for r in lead_ratios)
    report(capsys, 12, ok,
           f"coupling halving: Z-vs-H gap ratios "
           f"{[f'{r:.1f}' for r in diff_ratios]} (quartic window [8, 32]), "
           f"leading-shift ratios {[f'{r:.1f}' for r in lead_ratios]} "
           "(quadratic window [2.8, 6])")
