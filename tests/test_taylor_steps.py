"""A driven step's unitary is a Taylor polynomial, certified by its remainder bound.

* each degree's radius in ``TAYLOR_RADII`` is the largest float whose remainder bound is
  at most 2^-53, at 40 digits, so a theta of 0.1 takes degree 9 and one of 1 degree 18;
* on synthetic spectra at d = 2, 16, 64 and 256 and theta up to 1, the polynomial agrees
  with a 40-digit mpmath exponential within the bound that ``_taylor_exponential``
  states, with a margin of at least 10, and its truncation within the remainder bound;
* a chunk whose theta crosses 1 takes the eigh path on the rows past 1, bit for bit,
  and its trace and audit bytes do not depend on the chunk length;
* a driven run at tau ||H|| / hbar ~ 1e6 takes the eigh path on every step, so it writes
  the bytes and verdicts that one eigh per step gives.
"""

import json
import math
from importlib import resources

import mpmath
import numpy as np
import pytest
from test_trajectory_chunks import density_doc, run_outputs

from obsalg import evolution, scenarios
from obsalg.evolution import PICTURES, TAYLOR_RADII
from obsalg.scenarios import build_engine, config_from_doc, run_scenario
from obsalg.transforms import unitary_exponential

U = 2.0 ** -53
FIXED = 2 ** 200  # the scale of the exact fixed-point comparison


def remainder_bound(m: int, theta) -> mpmath.mpf:
    """theta^(m+1)/(m+1)! (1 - theta/(m+2))^-1 at 40 digits."""
    with mpmath.workdps(40):
        theta = mpmath.mpf(theta)
        return theta ** (m + 1) / mpmath.factorial(m + 1) / (1 - theta / (m + 2))


def theta_and_degree(g: np.ndarray) -> tuple[float, int]:
    """theta = ||G^2||_1^(1/2) as the kernel reads it, and the degree it takes."""
    theta = math.sqrt(np.max(np.sum(np.abs(g @ g), axis=-2)))
    return theta, int(np.searchsorted(TAYLOR_RADII, theta)) + 1


def test_each_radius_is_the_largest_theta_whose_bound_holds():
    assert len(TAYLOR_RADII) == 18 and np.all(np.diff(TAYLOR_RADII) > 0)
    for m, radius in enumerate(TAYLOR_RADII.tolist(), 1):
        assert remainder_bound(m, radius) <= U < remainder_bound(m, np.nextafter(radius, 2))
    degree = lambda theta: int(np.searchsorted(TAYLOR_RADII, theta)) + 1
    assert (degree(0.0), degree(0.1), degree(1.0)) == (1, 9, 18)


def synthetic(d: int, rho: float, seed: int):
    """G = D R diag(lam) R D^dagger, ||G||_2 = rho, with exactly representable entries:
    R = 1 - (2/d) v v^T for v in {+1, -1}^d, D diagonal in {1, i, -1, -i}, and lam dyadic
    with 31 significant bits, so every sum and product forming G is exact."""
    rng = np.random.default_rng(seed)
    v = rng.choice([-1.0, 1.0], size=d)
    phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size=d)]
    x = np.concatenate([[1.0, -1.0], rng.uniform(-1, 1, size=d - 2)])
    quantum = 2.0 ** (math.floor(math.log2(rho)) - 30)
    lam = np.round(rho * x / quantum) * quantum
    core = (4 / d ** 2) * lam.sum() - (2 / d) * np.add.outer(lam, lam)
    g = np.outer(v, v) * core + np.diag(lam)
    return (phases[:, None] * g) * phases.conj()[None, :], v, phases, lam


def distance_to_exponential(u: np.ndarray, v: np.ndarray, phases: np.ndarray,
                            lam: np.ndarray) -> float:
    """||u - e^{iG}||_2 for the G of :func:`synthetic`: e^{i lam_l} at 40 digits, and
    d^2 R diag(e^{i lam}) R = d^2 diag(e) + v v^T (4 sum(e) - 2 d (e_j + e_k)) against
    d^2 D^dagger u D in exact fixed-point integers, rounded once at the end."""
    d = len(lam)
    with mpmath.workdps(40):
        e = [mpmath.expj(mpmath.mpf(float(x))) for x in lam]
        parts = [[int(mpmath.nint(part(z) * FIXED)) for z in e]
                 for part in (mpmath.re, mpmath.im)]
    w = phases.conj()[:, None] * u * phases[None, :]  # exact: the phases are 1, i, -1, -i
    signs = np.outer(v, v).astype(int).astype(object)
    diff = []
    for e_part, w_part in zip(parts, (w.real, w.imag)):
        e_part = np.array(e_part, dtype=object)
        exact = signs * (4 * e_part.sum() - 2 * d * np.add.outer(e_part, e_part))
        exact[np.diag_indices(d)] += d * d * e_part
        # each float times 2^200 is an integer but below 2^-147, where it is off by < 2^-200
        hat = np.array([int(math.ldexp(x, 200)) for x in w_part.ravel().tolist()],
                       dtype=object).reshape(d, d)
        diff.append(np.array([x / (d * d * FIXED) for x in (d * d * hat - exact).ravel()]))
    return float(np.linalg.norm((diff[0] + 1j * diff[1]).reshape(d, d), 2))


EDGES = [radius * (1 - 1e-9) for radius in TAYLOR_RADII[:-1].tolist()]


@pytest.mark.parametrize("d, targets", [
    (2, [2.0 ** -30, 1e-3, 0.1, 0.5, 1 - 2.0 ** -20, *EDGES]),
    (16, [2.0 ** -30, 1e-3, 0.1, 0.5, 1 - 2.0 ** -20, *EDGES]),
    (64, [2.0 ** -30, 1e-3, 0.1, 0.5, 1 - 2.0 ** -20]),
    (256, [2.0 ** -30, 0.1, 1 - 2.0 ** -20]),
], ids=["d2", "d16", "d64", "d256"])
def test_polynomial_agrees_with_a_40_digit_exponential_within_its_bound(d, targets):
    """The stated bound ||U - e^X||_2 <= 2^-53 + gamma_{(m+1)(d+3)} e^{||G||_1} holds with a
    margin of 10, up to the radius of each degree (at d = 2 and 16, where theta is closest
    to ||G||_2), and the truncation alone is within the remainder bound."""
    unit, *_ = synthetic(d, 1.0, d)
    scale = theta_and_degree(unit)[0]  # theta per unit of rho
    for target in targets:
        g, v, phases, lam = synthetic(d, target / scale, d)
        theta, m = theta_and_degree(g)
        assert theta <= 1.0
        u = evolution._taylor_exponential(g[None])[0]
        n = (m + 1) * (d + 3)
        bound = U + n * U / (1 - n * U) * math.exp(np.max(np.sum(np.abs(g), axis=0)))
        gap = distance_to_exponential(u, v, phases, lam)
        assert gap <= bound / 10, (target, m, gap, bound)
        with mpmath.workdps(40):  # ||T_m(iG) - e^{iG}||_2 = max over the spectrum
            truncation = max(abs(sum((1j * mpmath.mpf(float(x))) ** k / mpmath.factorial(k)
                                     for k in range(m + 1)) - mpmath.expj(mpmath.mpf(float(x))))
                             for x in lam)
        assert truncation <= remainder_bound(m, theta) <= U


CROSSING = "A + 50*t*B"  # theta 0.09 at t0 = 0 to 1.4 at t = 0.3: past 1 from step 6


@pytest.mark.parametrize("picture", PICTURES)
@pytest.mark.parametrize("state", ["pure", "density"])
def test_a_chunk_crossing_theta_1_takes_the_eigh_path_past_it(tmp_path, monkeypatch, picture,
                                                              state):
    doc = density_doc(picture, state, CROSSING, steps=7)
    engine = build_engine(config_from_doc(doc))
    times = engine.grid.times().tolist()[:-1]
    stack = next(engine.trajectory(len(times))).unitaries  # the whole run is one chunk
    h, _ = engine.hamiltonian.values(engine.hamiltonian.expr, times)
    g = h * complex(engine.grid.tau)
    past = [theta_and_degree(g_j)[0] > 1 for g_j in g]
    assert any(past) and not all(past)
    for j, g_j in enumerate(g):
        path = unitary_exponential if past[j] else evolution._taylor_exponential
        assert stack[j].tobytes() == path(g_j[None])[0].tobytes(), j
    default = run_outputs(tmp_path, doc, "default")
    for rows in (1, 2, 3):
        monkeypatch.setattr(scenarios, "CHUNK_BYTES", 16 * 4 ** 2 * rows)
        assert run_outputs(tmp_path, doc, f"rows_{rows}") == default, rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("picture", PICTURES)
def test_a_step_far_past_theta_1_is_the_eigh_paths_bit_for_bit(monkeypatch, picture):
    """tau ||H|| / hbar ~ 1.1e6: every step takes the fallback, so the run's trace and
    verdicts are those of one eigh per step (the exponential of every step replaced)."""
    doc = json.loads(resources.files("obsalg.data").joinpath("rabi.json").read_text())
    doc.update(name="far", hamiltonian="(omega/2)*cos(nu*t)*SX + (delta/2)*SZ",
               constants={"omega": 1.0, "delta": 0.5, "nu": 1.3},
               grid={"tau": 2e6, "steps": 50}, picture=picture,
               observables_to_trace={"sz": "SZ", "sx": "SX"})
    config = config_from_doc(doc)
    result = run_scenario(config)
    monkeypatch.setattr(evolution, "_taylor_exponential", unitary_exponential)
    eigh_path = run_scenario(config)
    assert result.rows == eigh_path.rows
    assert [c.to_json_entry() for c in result.checks] == [
        c.to_json_entry() for c in eigh_path.checks]
    assert [(c.name, c.passed) for c in result.checks] == [
        ("unitarity_along_grid", True), ("picture_equivalence", True),
        ("equation_residual_regime", True)]
    assert result.checks[-1].residuals["tau_h_over_hbar"] > 1e6
