"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``criterion NN PASS/FAIL`` line with the measured quantities (visible
under ``pytest -s``), then asserts.  Criteria 2, 3, 8, 9, 12 and 13 are
seeded sweeps; their seeds are fixed here so every run measures the
same ensemble.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from entwedge import (
    Bipartition,
    PureState,
    bipartite_concurrence,
    enumerate_bipartitions,
    invariance_experiment,
    load_state,
    multipartite_measure,
    parse_ket,
    pretty,
    save_state,
    separability_report,
)
from entwedge.cli import cli_main
from conftest import (
    bell_state,
    bell_x_bell_state,
    bell_x_zero_state,
    ghz_state,
    random_product_state,
    random_state,
    w3_state,
)
from oracles import (
    alt,
    cmb_concurrence,
    gme_concurrence,
    grid_norm_sq,
    pair_qubit_term_sum,
    partial_trace,
    purity,
    signature,
    tripartite_term_sum,
    wedge_pair,
)
from test_ketlang import ROUND_TRIP_CORPUS


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _singleton_impurity(state: PureState) -> float:
    return min(
        1.0 - purity(partial_trace(state, j))
        for j in range(1, state.num_subsystems + 1)
    )


def test_criterion_01_pair_qubit_goldens():
    basis = PureState((2, 2), np.array([0, 0, 1, 0], dtype=np.complex128))
    amps = np.array([math.sqrt(0.9), 0, 0, math.sqrt(0.1)], dtype=np.complex128)
    skew = PureState((2, 2), amps)
    worst = 0.0
    for state, want in ((bell_state(), 1.0), (basis, 0.0), (skew, 0.6)):
        closed = math.sqrt(2.0 * pair_qubit_term_sum(state.amplitudes))
        value = bipartite_concurrence(state).value
        worst = max(worst, abs(value - want), abs(closed - want), abs(value - closed))
    _report(
        1,
        f"two-qubit C and its closed form hit 1, 0, and 0.6 to {worst:.2e} (tol 1e-12)",
        worst <= 1e-12,
    )


def test_criterion_02_bipartite_closed_form_sweep():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        state = random_state(rng, dims)
        c = bipartite_concurrence(state).value
        oracle = 2.0 * (1.0 - purity(partial_trace(state, 1)))
        worst = max(worst, abs(c * c - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        2,
        f"C^2 = 2(1 - tr rho_1^2) to {worst:.2e} on 1000 bipartite states "
        f"in {elapsed:.2f}s (tols 1e-9, 5s)",
        ok,
    )


def test_criterion_03_multipartite_closed_form_sweep():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 3, 4):
        for _ in range(1000):
            while True:
                dims = tuple(int(rng.integers(2, 4)) for _ in range(m))
                if math.prod(dims) <= 27:
                    break
            state = random_state(rng, dims)
            result = multipartite_measure(state)
            deficit = sum(
                2.0 - 2.0 * purity(partial_trace(state, j)) for j in range(1, m + 1)
            )
            worst = max(worst, abs(result.value**2 - result.norm_constant * deficit))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(
        3,
        f"E^2 matches the marginal-purity closed form to {worst:.2e} on "
        f"3x1000 states in {elapsed:.2f}s (tols 1e-9, 30s)",
        ok,
    )


def test_criterion_04_tripartite_goldens_and_agreement():
    def explicit(state):
        return math.sqrt(2.0 * tripartite_term_sum(state.tensor))

    golden = [
        (explicit(ghz_state(3)), math.sqrt(6.0)),
        (explicit(w3_state()), 4.0 / math.sqrt(3.0)),
        (explicit(bell_x_zero_state()), 2.0),
    ]
    golden_err = max(abs(got - want) for got, want in golden)
    rng = np.random.default_rng(1004)
    route_err = 0.0
    for dims in [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 3, 4)]:
        state = random_state(rng, dims)
        route_err = max(
            route_err,
            abs(explicit(state) - multipartite_measure(state).value),
        )
    ok = golden_err <= 1e-9 and route_err <= 1e-12
    _report(
        4,
        f"three-subsystem goldens off by {golden_err:.2e} (tol 1e-9), explicit "
        f"vs generic route off by {route_err:.2e} (tol 1e-12)",
        ok,
    )


def test_criterion_05_doubling_on_two_subsystems():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(500):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        state = random_state(rng, dims)
        e = multipartite_measure(state).value
        c = bipartite_concurrence(state).value
        worst = max(worst, abs(e - 2.0 * c))
    _report(
        5,
        f"E = 2C on 500 bipartite states to {worst:.2e} (tol 1e-9)",
        worst <= 1e-9,
    )


def test_criterion_06_measure_separates_products_from_entangled():
    rng = np.random.default_rng(1006)
    dims_pool = [(2, 3), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (2, 3, 2, 2)]
    product_worst = 0.0
    product_flags = True
    for k in range(500):
        state = random_product_state(rng, dims_pool[k % len(dims_pool)])
        product_worst = max(product_worst, multipartite_measure(state).value)
        product_flags = product_flags and separability_report(state).fully_separable
    entangled_least = math.inf
    entangled_flags = True
    for k in range(500):
        dims = dims_pool[k % len(dims_pool)]
        state = random_state(rng, dims)
        while _singleton_impurity(state) < 1e-3:
            state = random_state(rng, dims)
        entangled_least = min(entangled_least, multipartite_measure(state).value)
        entangled_flags = entangled_flags and not separability_report(state).fully_separable
    ok = (
        product_worst <= 1e-10
        and product_flags
        and entangled_least > 1e-3
        and entangled_flags
    )
    _report(
        6,
        f"500 products: E <= {product_worst:.2e} (tol 1e-10), all flagged product; "
        f"500 entangled: E >= {entangled_least:.2e} (must exceed 1e-3), none flagged",
        ok,
    )


def test_criterion_07_partition_census_and_verdicts():
    parts = enumerate_bipartitions(4)
    census_ok = [p.left for p in parts] == [
        (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4),
    ]
    report = separability_report(bell_x_bell_state())
    pair = report.per_partition[Bipartition((1, 2), 4)]
    others = [
        report.per_partition[Bipartition(left, 4)]
        for left in [(1,), (2,), (3,), (4,), (1, 3), (1, 4)]
    ]
    bb_ok = (
        pair.separable
        and pair.residual <= 1e-12
        and all(not v.separable and v.residual >= 0.4 for v in others)
    )
    ghz = separability_report(ghz_state(4))
    ghz_ok = not ghz.fully_separable and all(
        not v.separable for v in ghz.per_partition.values()
    )
    ok = census_ok and bb_ok and ghz_ok
    _report(
        7,
        "4 subsystems give exactly 7 splits; paired Bells separate only at "
        "{1,2} (others >= 0.4); GHZ entangled at every split",
        ok,
    )


def test_criterion_08_invariance_sweep_small():
    rng = np.random.default_rng(1008)
    dims_list = [(2, 2), (3, 3), (2, 4), (3, 2), (2, 2)]
    dims_list += [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (2, 2, 2)]
    start = time.perf_counter()
    worst = 0.0
    for k, dims in enumerate(dims_list):
        state = random_state(rng, dims)
        run = invariance_experiment(state, trials=1000, seed=9000 + k)
        worst = max(worst, run.max_abs_deviation)
    elapsed = time.perf_counter() - start
    _report(
        8,
        f"10 states x 1000 local rotations: max |delta| = {worst:.2e} "
        f"(tol 1e-9) in {elapsed:.1f}s",
        worst <= 1e-9,
    )


def test_criterion_09_four_subsystem_runs_reported_deterministically():
    rng = np.random.default_rng(1009)
    states = {"ghz4": ghz_state(4), "random": random_state(rng, (2, 2, 2, 2))}
    deterministic = True
    reported = {}
    for name, state in states.items():
        first = invariance_experiment(state, trials=1000, seed=77)
        second = invariance_experiment(state, trials=1000, seed=77)
        deterministic = deterministic and first == second
        reported[name] = first.max_abs_deviation
    summary = ", ".join(f"{name}: {dev:.3e}" for name, dev in reported.items())
    _report(
        9,
        f"4-subsystem runs repeat bitwise; observed max |delta| {summary} "
        "(reported, not asserted)",
        deterministic,
    )


def test_criterion_10_multilinear_identities():
    sig_ok = True
    for m in range(1, 6):
        perms = list(itertools.permutations(range(m)))
        for p in perms:
            for q in perms:
                p_after_q = tuple(p[i] for i in q)
                sig_ok = sig_ok and signature(p_after_q) == signature(p) * signature(q)
    rng = np.random.default_rng(1010)
    alt_err = 0.0
    for _ in range(10):
        grid = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        a = alt(grid)
        alt_err = max(alt_err, float(np.max(np.abs(alt(a) - a))))
        alt_err = max(alt_err, float(np.max(np.abs(a + a.transpose(1, 0, 2)))))
    lagrange_err = 0.0
    for _ in range(50):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = grid_norm_sq(wedge_pair(v, w))
        rhs = 2.0 * (
            float(np.linalg.norm(v)) ** 2 * float(np.linalg.norm(w)) ** 2
            - abs(np.vdot(v, w)) ** 2
        )
        lagrange_err = max(lagrange_err, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = sig_ok and alt_err <= 1e-12 and lagrange_err <= 1e-9
    _report(
        10,
        f"signs multiplicative through 5 slots; alternation projection and "
        f"antisymmetry off by {alt_err:.2e} (tol 1e-12); pairwise norm identity "
        f"off by {lagrange_err:.2e} (tol 1e-9)",
        ok,
    )


def test_criterion_11_text_formats_are_stable(tmp_path, capsys):
    corpus_ok = len(ROUND_TRIP_CORPUS) >= 50
    for text in ROUND_TRIP_CORPUS:
        first = parse_ket(text)
        printed = pretty(first)
        second = parse_ket(printed)
        corpus_ok = corpus_ok and second == first and pretty(second) == printed

    rng = np.random.default_rng(1011)
    file_ok = True
    for dims in [(2, 2), (3, 2, 2), (2, 2, 2, 2)]:
        state = random_state(rng, dims)
        path = str(tmp_path / "state.json")
        save_state(state, path)
        loaded = load_state(path)
        file_ok = file_ok and np.array_equal(loaded.amplitudes, state.amplitudes)

    bell_path = str(tmp_path / "bell.json")
    save_state(bell_state(), bell_path)
    invocations = [
        ["measure", "--state", bell_path, "--output", "machine"],
        ["separability", "--state", bell_path, "--output", "machine"],
        ["invariance", "--state", bell_path, "--trials", "5", "--seed", "3",
         "--output", "machine"],
    ]
    cli_ok = True
    for argv in invocations:
        assert cli_main(list(argv)) == 0
        first_out = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second_out = capsys.readouterr().out
        cli_ok = cli_ok and first_out == second_out and json.loads(first_out)

    ok = corpus_ok and file_ok and cli_ok
    _report(
        11,
        f"{len(ROUND_TRIP_CORPUS)} expressions round-trip through the printer; "
        "state files reload bit for bit; repeated machine output is byte-identical",
        bool(ok),
    )


def _biseparable_state(rng: np.random.Generator, dims) -> PureState:
    """A random pure state on one randomly chosen slot, tensored with a
    random joint state of the other two, in slot order."""
    j = int(rng.integers(len(dims)))
    rest = tuple(n for k, n in enumerate(dims) if k != j)
    factor = random_state(rng, (dims[j],)).amplitudes
    pair = random_state(rng, rest).amplitudes.reshape(rest)
    tensor = np.moveaxis(np.multiply.outer(factor, pair), 0, j)
    return PureState(tuple(dims), tensor.reshape(-1))


def test_criterion_12_what_e_sees_past_three_subsystems():
    # m = 3: with slot j pure, E^2 = 4 sum_{i != j} (1 - tr rho_i^2)
    # <= 8 (1 - 1/min(n_k, n_l)) over the other two slots, which is 4 on
    # both dims below, so no biseparable state reaches GHZ3's sqrt(6).
    rng = np.random.default_rng(1012)
    peaks = {}
    for dims in [(2, 2, 2), (2, 3, 2)]:
        peaks[dims] = max(
            multipartite_measure(_biseparable_state(rng, dims)).value
            for _ in range(3000)
        )
    ghz3 = multipartite_measure(ghz_state(3)).value
    m3_ok = max(peaks.values()) <= 2.0 and abs(ghz3 - math.sqrt(6.0)) <= 1e-12

    # m = 4: Bell x Bell is separable across {1,2}|{3,4}, yet every
    # singleton marginal is maximally mixed, as for GHZ4, so E cannot
    # tell the two apart; their split residuals can.
    bb, ghz4 = bell_x_bell_state(), ghz_state(4)
    e_bb = multipartite_measure(bb).value
    e_ghz4 = multipartite_measure(ghz4).value
    collide = all(
        e == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12) for e in (e_bb, e_ghz4)
    )
    profiles = {
        name: {p.left: v.residual for p, v in separability_report(s).per_partition.items()}
        for name, s in (("bb", bb), ("ghz4", ghz4))
    }
    want_bb = {(1,): 0.5, (2,): 0.5, (3,): 0.5, (4,): 0.5,
               (1, 2): 0.0, (1, 3): 0.75, (1, 4): 0.75}
    want = {"bb": want_bb, "ghz4": dict.fromkeys(want_bb, 0.5)}
    profile_ok = all(
        profiles[name].keys() == want[name].keys()
        and all(abs(profiles[name][k] - w) <= 1e-12 for k, w in want[name].items())
        for name in want
    )
    ok = m3_ok and collide and profile_ok
    peak_text = ", ".join(f"{dims}: {peak:.4f}" for dims, peak in peaks.items())
    _report(
        12,
        f"3000 biseparable states per dims peak at E = {peak_text} (bound 2, "
        f"GHZ3 {ghz3:.4f}); Bell x Bell and GHZ4 both give E = {e_bb!r} / "
        f"{e_ghz4!r}, split profiles differ ({{1,2}}: 0 vs 0.5)",
        ok,
    )


def _qubit_state(terms) -> PureState:
    """Four qubits from ``{bit string: amplitude}``, normalized."""
    vec = np.zeros(16, dtype=np.complex128)
    for bits, amp in terms.items():
        vec[int(bits, 2)] = amp
    return PureState((2, 2, 2, 2), vec / math.sqrt(len(terms)))


def higuchi_sudbery_state() -> PureState:
    omega = np.exp(2j * math.pi / 3)
    return _qubit_state({"0011": 1, "1100": 1, "1010": omega, "0101": omega,
                         "1001": omega ** 2, "0110": omega ** 2})


def cluster_state() -> PureState:
    return _qubit_state({"0000": 1, "0011": 1, "1100": 1, "1111": -1})


def test_criterion_13_e_against_the_generalized_concurrences():
    # the abstract's first half: on two and three subsystems E is the
    # generalized concurrence C_N of Carvalho, Mintert and Buchleitner
    # (C = C_N and E = 2 C_N), whose marginals the oracle builds itself
    rng = np.random.default_rng(1013)
    worst, count = 0.0, 0
    for m in (2, 3):
        for dims in itertools.product((2, 3, 4), repeat=m):
            for _ in range(3):
                state = random_state(rng, dims)
                if m == 2:
                    value = bipartite_concurrence(state).value
                else:
                    value = multipartite_measure(state).value / 2.0
                worst = max(worst, abs(value / cmb_concurrence(state) - 1.0))
                count += 1
    sweep_ok = worst <= 1e-12

    # the second half: on four qubits E reads one value across two
    # classes that C_N and the GME concurrence keep apart
    states = {"GHZ4": ghz_state(4), "Bell x Bell": bell_x_bell_state(),
              "HS": higuchi_sudbery_state(), "cluster": cluster_state()}
    table = {name: (multipartite_measure(s).value, cmb_concurrence(s), gme_concurrence(s))
             for name, s in states.items()}
    cn_want = {"GHZ4": math.sqrt(7.0) / 2.0, "Bell x Bell": math.sqrt(7.0) / 2.0,
               "HS": math.sqrt(2.0), "cluster": math.sqrt(2.0)}
    four_ok = all(
        e == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        and c_n == pytest.approx(cn_want[name], rel=1e-12)
        # sqrt of a rounded zero is about 1e-8, not 0
        and (gme <= 1e-7 if name == "Bell x Bell" else gme == pytest.approx(1.0, rel=1e-12))
        for name, (e, c_n, gme) in table.items()
    )
    ok = sweep_ok and four_ok
    rows = "; ".join(f"{name}: E {e:.4f}, C_N {c_n:.4f}, GME {gme:.4f}"
                     for name, (e, c_n, gme) in table.items())
    _report(
        13,
        f"{count} seeded states on dims 2-4 per slot match C_N to rel {worst:.1e}; {rows}",
        ok,
    )
