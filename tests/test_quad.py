import cmath
import contextlib
import json
import math
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sixfold.quad as quad
from goldens import AVX2, AVX512, BASELINE, golden, kernel_set
from oracles import integrate_6d_brute, qmc_reference, sobol_antonov_saleev
from sixfold.core import (
    DomainError,
    InadmissibleError,
    NonFiniteSampleError,
    ParameterSet,
    UnsupportedRegimeError,
    derive_exponents,
    validate_parameters,
)
from sixfold.engine import rhs_theorem, verify
from sixfold.quad import (
    Integrand6D,
    QmcSpec,
    Rule1D,
    _tensor_sum,
    gauss_laguerre,
    integrate_6d_qmc,
    integrate_6d_tensor,
    log_axis_rule,
    sobol_points,
    tanh_sinh,
    tanh_sinh_nesting,
)
from sixfold.specialfn import digamma, gamma, polygamma

REFERENCE = ParameterSet(k=0, a=1.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
# Re(beta_p) = -0.9923: the head warp L = T^130 underflows for small T.
NEAR_BETA_MINUS_ONE = ParameterSet(
    k=4,
    a=1.5860789719579715,
    m=0.06558552497627514,
    u=-1.1141350972002884,
    v=0.5203655233919114,
    mu=-0.40151651631397245,
    nu=2.320494519115759,
)
# Re(beta_p) = -0.9987: the head substitution T^c, c = 770, overflows for T > 1.
NEARER_BETA_MINUS_ONE = ParameterSet(
    k=3,
    a=0.26032224889787603,
    m=0.24402290529660509,
    u=-0.9040761494998582,
    v=0.6487331623302608,
    mu=-0.1570367453525392,
    nu=1.9103604788734674,
)
# Non-integer degrees, so no Gauss series terminates.  REAL_COUPLING has
# integer k and a > 0, so its QMC samples stay float64; COMPLEX_COUPLING
# has non-integer k and a off the real axis.
REAL_COUPLING = ParameterSet(k=3, a=0.8, m=0.4, u=-0.6, v=0.9, mu=-0.3, nu=1.6)
COMPLEX_COUPLING = ParameterSet(k=1.7, a=-1.3 + 0.4j, m=0.3, u=-0.4, v=1.35, mu=0.2, nu=0.85)

# First points of the 6-dimensional Sobol sequence (cross-checked against an
# independent generator during development).
SOBOL_FIRST_8 = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        [0.75, 0.25, 0.25, 0.25, 0.75, 0.75],
        [0.25, 0.75, 0.75, 0.75, 0.25, 0.25],
        [0.375, 0.375, 0.625, 0.875, 0.375, 0.125],
        [0.875, 0.875, 0.125, 0.375, 0.875, 0.625],
        [0.625, 0.125, 0.875, 0.625, 0.625, 0.875],
        [0.125, 0.625, 0.375, 0.125, 0.125, 0.375],
    ]
)


def _rules(betas, level=5, n=32):
    """Explicit tensor rules: tanh-sinh on x and y, log-axis rules on p, q, t, z."""
    ts, lag = tanh_sinh(level), gauss_laguerre(n)
    return (ts, ts) + tuple(log_axis_rule(b, ts, lag) for b in betas)


def _ref_rules(level=5, n=32):
    return _rules([b.real for b in derive_exponents(REFERENCE)], level, n)


def test_gauss_laguerre_unit_mass():
    rule = gauss_laguerre(5)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13


def test_gauss_laguerre_moment_class():
    rule = gauss_laguerre(12)
    for j in range(0, 24):
        got = np.sum(rule.weights * rule.nodes**j)
        expect = float(math.factorial(j))
        assert abs(got - expect) <= 1e-12 * expect, j


def test_gauss_laguerre_weight_positivity():
    rule = gauss_laguerre(64)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("level", [0, 1], ids=["fine", "coarse"])
def test_tensor_laguerre_constants(level):
    # The plan's constant rules are gauss_laguerre's, to within what another
    # LAPACK build may move, and integrate x^j against e^-x to j!.
    lag = quad._tensor_levels()[level][1]
    ref = gauss_laguerre(len(lag.nodes))
    assert len(lag.nodes) == (32, 24)[level]
    assert np.all(np.abs(lag.nodes - ref.nodes) <= 1e-12 * ref.nodes)
    assert np.all(np.abs(lag.weights - ref.weights) <= 1e-15)
    for j in range(21):
        expect = math.factorial(j)
        assert abs(np.sum(lag.weights * lag.nodes**j) - expect) <= 1e-11 * expect, j


def test_log_axis_rule_moments():
    # power moments and the log moments Gamma'(b+1), Gamma''(b+1); at
    # alpha = -0.99 the smallest nodes underflow and only ln L carries them
    for alpha in (-0.99, -0.75, 0.75):
        rule = log_axis_rule(alpha, tanh_sinh(5), gauss_laguerre(32))
        assert np.all(rule.weights > 0)
        for j in range(0, 6):
            got = np.sum(rule.weights * rule.nodes**j)
            expect = gamma(alpha + j + 1.0).real
            assert abs(got - expect) <= 2e-9 * expect
        g1 = gamma(alpha + 1.0).real
        psi1 = digamma(alpha + 1.0).real
        d1 = g1 * psi1
        d2 = g1 * (psi1**2 + polygamma(1, alpha + 1.0).real)
        got1 = np.sum(rule.weights * rule.log_nodes)
        got2 = np.sum(rule.weights * rule.log_nodes**2)
        assert abs(got1 - d1) < 1e-9 * (1 + abs(d1))
        assert abs(got2 - d2) < 1e-9 * (1 + abs(d2))


def test_tanh_sinh_endpoint_singularities():
    rule = tanh_sinh(7)
    assert abs(np.sum(rule.weights * rule.nodes**-0.5) - 2.0) < 1e-12
    assert abs(np.sum(rule.weights * rule.complement**-0.3) - 1.0 / 0.7) < 1e-12
    got = np.sum(rule.weights * np.sqrt(-np.log(rule.nodes)))
    assert abs(got - math.sqrt(math.pi) / 2.0) < 1e-12


def test_tensor_path_builds_one_tanh_sinh_rule(monkeypatch):
    # Both levels come from one level-5 build: the coarse one is level 5's
    # even nodes at twice their weights, bit for bit tanh_sinh(4).
    (fine, _), (coarse, _) = quad._tensor_levels()
    expect = tanh_sinh(4)
    assert np.array_equal(fine.nodes, tanh_sinh(5).nodes)
    for name in ("nodes", "complement", "weights"):
        assert np.array_equal(getattr(coarse, name), getattr(expect, name)), name
    builds = []
    real = quad.tanh_sinh
    monkeypatch.setattr(quad, "tanh_sinh", lambda level: builds.append(level) or real(level))
    f = Integrand6D(ParameterSet(k=2, a=-1.3 + 0.4j, m=0.3, u=-0.4, v=1.35, mu=0.2, nu=0.85))
    for calls in (1, 2):
        integrate_6d_tensor(f)
        assert builds == [5] * calls


@pytest.mark.parametrize("level", range(2, 13))
def test_tanh_sinh_levels_nest(level):
    fine, coarse = tanh_sinh(level), tanh_sinh(level - 1)
    held, added = tanh_sinh_nesting(fine)
    assert np.array_equal(fine.nodes[held], coarse.nodes)
    assert np.array_equal(fine.complement[held], coarse.complement)
    assert np.array_equal(2.0 * fine.weights[held], coarse.weights)
    # the two indices cover every node exactly once
    index = np.arange(len(fine.nodes))
    assert np.array_equal(np.sort(np.concatenate([index[held], index[added]])), index)


def test_rule_parameter_validation():
    with pytest.raises(DomainError):
        tanh_sinh(13)
    with pytest.raises(DomainError):
        tanh_sinh(0)
    with pytest.raises(DomainError):
        gauss_laguerre(600)
    with pytest.raises(DomainError):
        log_axis_rule(-1.5, tanh_sinh(5), gauss_laguerre(32))


def test_sobol_first_points():
    pts = sobol_points(8)
    assert pts.dtype == np.uint32 and pts.shape == (6, 8)
    assert np.array_equal(pts.T.astype(np.float64) * 2.0**-32, SOBOL_FIRST_8)
    assert np.array_equal(sobol_points(1), np.zeros((6, 1)))


@pytest.mark.parametrize("count", [1, 2, 3, 7, 1000, 12345])
def test_sobol_points_match_the_sequential_recurrence(count):
    # Counts that are not powers of two end inside a doubling.
    pts = sobol_points(count)
    assert pts.dtype == np.uint32
    assert np.array_equal(pts, sobol_antonov_saleev(count))


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 12, 1 << 14])
def test_sobol_chunk_is_base_xor_offset(chunk):
    full = sobol_points(1 << 16)
    base = sobol_points(chunk)
    direction = quad._direction_numbers()
    for c0 in range(0, 1 << 16, chunk):
        expect = np.bitwise_xor(base, quad._sobol_offset(direction, c0)[:, None])
        assert np.array_equal(full[:, c0 : c0 + chunk], expect), c0


def test_qmc_spec_validation():
    with pytest.raises(DomainError):
        QmcSpec(count=1000)
    with pytest.raises(DomainError):
        QmcSpec(count=3000)
    # The direction numbers have 32 bits: point 2^32 does not exist.
    assert QmcSpec(count=1 << 32).count == 1 << 32
    with pytest.raises(DomainError, match="at most 2\\^32"):
        QmcSpec(count=1 << 33)


def test_tensor_separable_product():
    # k = 0: the tensor value equals the product of 1-D applications
    rules = _ref_rules(level=4, n=16)
    f = Integrand6D(REFERENCE)
    val = _tensor_sum(f, rules)
    x_mass = np.sum(rules[0].weights * f.x_factor(rules[0].nodes, rules[0].complement))
    y_mass = np.sum(rules[1].weights * f.y_factor(rules[1].nodes, rules[1].complement))
    masses = [np.sum(r.weights) for r in rules[2:]]
    prod = x_mass * y_mass * np.prod(masses)
    assert abs(val - prod) <= 1e-13 * abs(prod)


def _every_sixth(rule):
    # A 5-node subset of a 29-node rule: the full rule takes the brute sum
    # tens of seconds, and the two sums must agree for any rule.
    return Rule1D(
        nodes=rule.nodes[::6],
        weights=rule.weights[::6],
        log_nodes=rule.log_nodes[::6],
    )


@pytest.mark.parametrize(
    "ps", [REFERENCE.replace(k=2), NEAR_BETA_MINUS_ONE], ids=["reference", "near_beta_minus_one"]
)
def test_tensor_matches_brute_enumeration(ps):
    f = Integrand6D(ps)
    ts = tanh_sinh(2)
    head, tail = tanh_sinh(1), gauss_laguerre(4)
    small = (ts, ts) + tuple(_every_sixth(log_axis_rule(b, head, tail)) for b in f.betas)
    assert small[2].nodes[0] == 0.0  # the first head node underflowed
    fast = _tensor_sum(f, small)
    brute = integrate_6d_brute(f, small)
    assert abs(fast - brute) <= 1e-13 * abs(brute)


def test_tensor_reference_values():
    rules = _ref_rules()
    target = math.pi**2 / 2.0
    val0 = _tensor_sum(Integrand6D(REFERENCE), rules)
    assert abs(val0 - target) <= 1e-8 * target
    val1 = _tensor_sum(Integrand6D(REFERENCE.replace(k=1)), rules)
    assert abs(val1) < 1e-10
    val2 = _tensor_sum(Integrand6D(REFERENCE.replace(k=2)), rules)
    assert abs(val2 - math.pi**4 / 2.0) <= 1e-4 * (1.0 + math.pi**4 / 2.0)


def test_tensor_near_beta_minus_one():
    # The log-axis rule keeps the mass of nodes whose L underflows.
    closed = rhs_theorem(NEAR_BETA_MINUS_ONE)
    tensor = verify("theorem", NEAR_BETA_MINUS_ONE, paths=("tensor",)).paths["tensor"]
    error = abs(tensor.value - closed)
    assert error <= 1e-8 * abs(closed)
    assert tensor.err >= error


# (value.real, value.imag, err) of the tensor path in hex, per numpy kernel
# set (goldens.py); the AVX512 values were recorded before
# integrate_6d_tensor built its own rules: the same rules feed the same
# sums, so no bit may move.  Integer degrees terminate the Gauss series;
# order u = -1 makes c = 1 - u an integer (positive integer orders break
# the strip condition Re(u) < 1).
_TENSOR_GOLDEN = {
    "integer_degree": (
        ParameterSet(k=3, a=1.5, m=0.4, u=-0.4, v=1.0, mu=-0.6, nu=1.0),
        {
            AVX512: ("-0x1.ba9c4cdf32988p+6", "0x0.0p+0", "0x1.c4f4d20000000p-23"),
            AVX2: ("-0x1.ba9c4cdf32988p+6", "0x0.0p+0", "0x1.c4f4cc0000000p-23"),
            BASELINE: ("-0x1.ba9c4cdf32988p+6", "0x0.0p+0", "0x1.c4f4cc0000000p-23"),
        },
    ),
    "integer_order": (
        ParameterSet(k=4, a=2.3, m=0.35, u=-1.0, v=1.7, mu=0.0, nu=0.6),
        {
            AVX512: ("0x1.71415121e3e96p+11", "0x0.0p+0", "0x1.ca7a340000000p-18"),
            AVX2: ("0x1.71415121e3e98p+11", "0x0.0p+0", "0x1.ca7a340000000p-18"),
            BASELINE: ("0x1.71415121e3e98p+11", "0x0.0p+0", "0x1.ca7a340000000p-18"),
        },
    ),
    "near_beta_minus_one": (
        NEAR_BETA_MINUS_ONE,
        {
            AVX512: ("0x1.41b271c7b0800p+23", "0x0.0p+0", "0x1.4e20000000000p-7"),
            AVX2: ("0x1.41b271c7af500p+23", "0x0.0p+0", "0x1.4e44000000000p-7"),
            BASELINE: ("0x1.41b271c7af500p+23", "0x0.0p+0", "0x1.4e44000000000p-7"),
        },
    ),
}


@pytest.mark.parametrize("case", list(_TENSOR_GOLDEN))
def test_tensor_golden_values(monkeypatch, case):
    # The values were recorded with the Laguerre rules of LAPACK's eigh; the
    # plan's constants give them with no LAPACK call.
    def no_lapack(*args, **kwargs):
        raise AssertionError("the tensor path called LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    ps, hexes = _TENSOR_GOLDEN[case]
    tensor = verify("theorem", ps, paths=("tensor",)).paths["tensor"]
    assert (tensor.value.real.hex(), tensor.value.imag.hex(), tensor.err.hex()) == golden(hexes)


def test_tensor_rejects_non_integer_k():
    with pytest.raises(UnsupportedRegimeError):
        integrate_6d_tensor(Integrand6D(REFERENCE.replace(k=0.5)))


def test_tensor_refuses_before_building_rules(monkeypatch):
    # The refusal comes first: no rule is built for a k the path refuses.
    def fail(*args):
        raise AssertionError("rule built for a refused k")

    monkeypatch.setattr(quad, "tanh_sinh", fail)
    with pytest.raises(InadmissibleError, match="tensor path needs integer k >= 0"):
        integrate_6d_tensor(Integrand6D(REFERENCE.replace(k=1.5)))


def test_direct_paths_raise_inadmissible():
    # A complex strip is refused where both direct paths build their integrand.
    with pytest.raises(InadmissibleError, match="tensor and qmc paths need real strip parameters"):
        Integrand6D(REFERENCE.replace(m=0.5 + 0.1j))
    negative_k = Integrand6D(REFERENCE.replace(k=-1, a=-2.0))
    for integrate in (integrate_6d_tensor, _tensor_sum, integrate_6d_brute):
        args = () if integrate is integrate_6d_tensor else (_ref_rules(2, 4),)
        with pytest.raises(InadmissibleError, match="tensor path needs integer k >= 0"):
            integrate(negative_k, *args)
    with pytest.raises(InadmissibleError, match="k is not a non-negative integer"):
        integrate_6d_qmc(Integrand6D(REFERENCE.replace(k=0.5)), QmcSpec(count=1 << 10))


@pytest.mark.parametrize("name", ["m", "u", "v", "mu", "nu"])
def test_complex_strip_is_refused_before_any_series(monkeypatch, name):
    # The refusal is the first step of construction: neither the exponents
    # nor a kernel's Gauss series is set up for an integrand no path admits.
    # An imaginary part of 1e-12, the tolerance itself, is refused.
    def fail(*args):
        raise AssertionError("set up for a complex strip")

    monkeypatch.setattr(quad, "derive_exponents", fail)
    monkeypatch.setattr(quad, "kernel_series", fail)
    ps = REAL_COUPLING.replace(**{name: getattr(REAL_COUPLING, name) + 1e-12j})
    with pytest.raises(InadmissibleError, match="tensor and qmc paths need real strip parameters"):
        Integrand6D(ps)


def test_qmc_reproducible_bit_for_bit():
    spec = QmcSpec(count=1 << 12, shift_seed=99)
    f = Integrand6D(REFERENCE)
    v1, e1 = integrate_6d_qmc(f, spec)
    v2, e2 = integrate_6d_qmc(f, spec)
    assert v1 == v2 and e1 == e2


def test_qmc_chunk_size_leaves_value_unchanged(monkeypatch):
    # One 2^15-point chunk is the whole replicate, summed in a single pass.
    # At 2^19 points, 32 or 128 chunk sums are merged pairwise, five or
    # seven merge levels deep.
    f = Integrand6D(COMPLEX_COUPLING)
    for count, chunks in ((1 << 15, (1 << 15, 1 << 14, 1 << 12, 1 << 10)), (1 << 19, (1 << 14, 1 << 12))):
        results = []
        for chunk in chunks:
            monkeypatch.setattr(quad, "_QMC_CHUNK", chunk)
            results.append(integrate_6d_qmc(f, QmcSpec(count=count)))
        assert results[1:] == results[:1] * (len(chunks) - 1), count


def _halving_sum(parts: list) -> float:
    """The first half's sum plus the second's, recursively."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return _halving_sum(parts[:half]) + _halving_sum(parts[half:])


def test_np_sum_of_a_power_of_two_block_is_the_halving_sum_of_its_chunks():
    # The QMC estimator sums each chunk as it is made and merges a
    # replicate's chunk sums in halves; that gives the bits of one np.sum
    # over the replicate only while numpy's pairwise sum splits a
    # power-of-two length in halves, up to A8's 2^22 points.  Terms of either
    # sign across 40 decades make every order round apart.  Past 2^17,
    # chunks of 2^14 and more keep the test fast.
    rng = np.random.default_rng(34)
    for b in range(10, 23):
        size = 1 << b
        samples = rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
        want = np.sum(samples)
        for c in range(10 if b <= 17 else 14, b + 1):
            chunk = 1 << c
            got = _halving_sum([np.sum(samples[i : i + chunk]) for i in range(0, size, chunk)])
            assert got.hex() == want.hex(), (
                f"numpy {np.__version__}: np.sum of 2^{b} samples is not the halving sum of its 2^{c} chunks"
            )


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pin(monkeypatch, cpus: int) -> None:
    """Make the QMC estimator see ``cpus`` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _peak_bytes(call) -> int:
    """The tracemalloc peak of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qmc_memory_does_not_grow_with_count(monkeypatch):
    # One CPU keeps every replicate in this process.  A replicate's Re and
    # Im samples would hold 4 MiB at 2^18 points against 512 KiB at 2^15;
    # its partial sums hold a few numbers whatever the count.
    _pin(monkeypatch, 1)
    f = Integrand6D(COMPLEX_COUPLING)
    peaks = [_peak_bytes(lambda: integrate_6d_qmc(f, QmcSpec(count=count))) for count in (1 << 15, 1 << 18)]
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


@pytest.mark.parametrize("ps", [REAL_COUPLING, COMPLEX_COUPLING], ids=["real_coupling", "complex_coupling"])
def test_qmc_working_set_fits_l2(monkeypatch, ps):
    # One CPU keeps every replicate in this process.  The 384 KiB Sobol
    # base and, at 2^14 points a chunk, eight float64 rows, a uint32 word
    # row and a flag row hold 1.45 MiB; (6, chunk) word and ln u blocks and
    # the kernels' own temporaries held 2.9-3.0 MiB.
    _pin(monkeypatch, 1)
    f = Integrand6D(ps)
    peak = _peak_bytes(lambda: integrate_6d_qmc(f, QmcSpec(count=1 << 16)))
    assert peak <= 1.75 * 2**20, peak


@pytest.mark.parametrize("ps, mib", [(REAL_COUPLING, 0.5), (COMPLEX_COUPLING, 1.0)], ids=["real_a", "complex_a"])
def test_tensor_working_set(ps, mib):
    # Two (389, 32) blocks, c0 and its Horner polynomial, hold 195 KiB in
    # float64 and 389 KiB in complex128; the whole 389 x 389 grids held 2.4
    # and 4.7 MiB.
    f = Integrand6D(ps.replace(k=6))
    peak = _peak_bytes(lambda: integrate_6d_tensor(f))
    assert peak <= mib * 2**20, peak


# Per numpy kernel set (goldens.py).  The AVX512 values were re-recorded
# when the Legendre kernel's Gauss series moved from a Maclaurin sum to
# Horner's rule about (1-x)/2 = 1/4: the values moved by at most 5.9e-16
# relative (3.4e-13 of their standard error), the standard errors
# by 3.0e-15 relative.  "complex_coupling" re-recorded when S^k moved from
# numpy's complex log and exp to real arithmetic: the real part of the value
# moved by one ulp (1.1e-16 relative), the standard error by 1.1e-14
# relative; "real_coupling" kept its bits.
_GOLDEN = {
    "real_coupling": (
        REAL_COUPLING,
        1 << 16,
        {
            AVX512: ("-0x1.7f9838564a392p+7", "0x0.0p+0", "0x1.187149041c1fcp+3"),
            AVX2: ("-0x1.7f9838564a392p+7", "0x0.0p+0", "0x1.187149041c1fcp+3"),
            BASELINE: ("-0x1.7f9838564a392p+7", "0x0.0p+0", "0x1.187149041c1fcp+3"),
        },
    ),
    "complex_coupling": (
        COMPLEX_COUPLING,
        1 << 18,  # 16 chunk sums merged pairwise
        {
            AVX512: ("-0x1.aba46553dfc0dp+3", "-0x1.4df9d8a09cf1cp+5", "0x1.561182b485bf9p-5"),
            AVX2: ("-0x1.aba46553dfc0ep+3", "-0x1.4df9d8a09cf1cp+5", "0x1.561182b485bdap-5"),
            BASELINE: ("-0x1.aba46553dfc0ep+3", "-0x1.4df9d8a09cf1cp+5", "0x1.561182b485bdap-5"),
        },
    ),
}


@pytest.mark.parametrize(
    "case, one_cpu",
    [(case, False) for case in _GOLDEN] + [(case, True) for case in _GOLDEN],
    ids=[*_GOLDEN, *(f"{case}-one_cpu" for case in _GOLDEN)],
)
def test_qmc_golden_values(monkeypatch, case, one_cpu):
    # Recorded in one process with the estimator that summed each replicate
    # by one np.sum; the default CPU set spreads the replicates over processes.
    ps, count, hexes = _GOLDEN[case]
    if one_cpu:
        _pin(monkeypatch, 1)
    asked = []
    points = quad.sobol_points
    monkeypatch.setattr(quad, "sobol_points", lambda n: asked.append(n) or points(n))
    val, se = integrate_6d_qmc(Integrand6D(ps), QmcSpec(count=count))
    assert (val.real.hex(), val.imag.hex(), se.hex()) == golden(hexes)
    assert asked and max(asked) <= quad._QMC_CHUNK


def test_golden_names_an_unrecorded_kernel_set():
    with pytest.raises(pytest.fail.Exception, match=re.escape(kernel_set())):
        golden({})


def _valid_strip(seed: int, k: complex, a: complex, m=None, beta_p=None):
    """A seeded random valid strip with k and a given, and m or Re beta_p pinned."""
    rng = random.Random(seed)
    while True:
        ps = ParameterSet(
            k=k,
            a=a,
            m=rng.uniform(0.05, 0.95) if m is None else m,
            u=rng.uniform(-2.0, 0.95),
            v=rng.uniform(0.05, 2.5),
            mu=rng.uniform(-2.0, 0.95),
            nu=rng.uniform(0.05, 2.5),
        )
        if beta_p is not None:  # beta_p = (-mu - m - nu) / 2
            ps = ps.replace(mu=-2.0 * beta_p - ps.m.real - ps.nu.real)
        if not validate_parameters(ps):
            return ps


_REFERENCE_STRIPS = {
    **{
        f"a_positive_k{k}": (_valid_strip(k, k, a), count)
        for k, a, count in (
            (0, 0.3, 1 << 19),  # 32 chunk sums merged pairwise
            (1, 0.8, 1 << 10),
            (2, 1.7, 1 << 15),
            (3, 2.9, 1 << 10),
            (4, 4.1, 1 << 15),
            (5, 0.55, 1 << 10),
            (6, 1.2, 1 << 15),
        )
    },
    "a_negative_k2.6": (_valid_strip(7, 2.6, -1.9), 1 << 18),  # 16 chunk sums
    "a_complex_k3.3": (_valid_strip(8, 3.3, 0.7 - 2.1j), 1 << 15),
    "k_minus1_m_half": (_valid_strip(9, -1, -2.3, m=0.5), 1 << 15),
    "k_minus3_m_half": (_valid_strip(10, -3, 1.1 + 0.9j, m=0.5), 1 << 10),
    "beta_p_near_minus1": (_valid_strip(11, 3, 1.4, beta_p=-0.9995), 1 << 15),
}


def _bits(result) -> tuple[str, str, str]:
    val, se = result
    return val.real.hex(), val.imag.hex(), se.hex()


_ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Reads strips as JSON lists of (real, imaginary) fields; prints the bits of
# the whole-grid tensor sum at each level of the plan.
_WHOLE_GRID_SUMS = """
import json, sys
from oracles import tensor_sum_whole_grid
from sixfold.core import ParameterSet
from sixfold.quad import Integrand6D, _tensor_levels, log_axis_rule
for fields in json.load(sys.stdin):
    f = Integrand6D(ParameterSet(**{name: complex(*z) for name, z in fields.items()}))
    for ts, lag in _tensor_levels():
        total = tensor_sum_whole_grid(f, (ts, ts) + tuple(log_axis_rule(b, ts, lag) for b in f.betas))
        print(total.real.hex(), total.imag.hex())
"""


def test_tensor_sum_matches_whole_grid():
    # The sum made 32 columns at a time has the bits of the whole grid's
    # ax @ acc @ ay on one BLAS thread, at both levels of the plan.  The
    # whole grid's product split between two BLAS threads rounds some
    # entries apart at complex log a, so the reference runs in a child on
    # one BLAS thread; the blocks run here, on as many as BLAS takes.
    strips = [_valid_strip(k, k, a) for k in range(7) for a in (0.3, 1.7, -2.0, 0.7 - 2.1j)]
    strips.append(NEAR_BETA_MINUS_ONE)
    got = []
    for ps in strips:
        f = Integrand6D(ps)
        for ts, lag in quad._tensor_levels():
            total = _tensor_sum(f, (ts, ts) + tuple(log_axis_rule(b, ts, lag) for b in f.betas))
            got.append(f"{total.real.hex()} {total.imag.hex()}")
    names = ("k", "a", "m", "u", "v", "mu", "nu")
    fields = [{name: (getattr(ps, name).real, getattr(ps, name).imag) for name in names} for ps in strips]
    path = os.pathsep.join((str(Path(quad.__file__).parents[1]), str(Path(__file__).parent)))
    child = subprocess.run(
        [sys.executable, "-c", _WHOLE_GRID_SUMS],
        input=json.dumps(fields),
        capture_output=True,
        text=True,
        env={**os.environ, **_ONE_BLAS_THREAD, "PYTHONPATH": path},
    )
    assert child.returncode == 0, child.stderr
    assert got == child.stdout.splitlines()


@pytest.mark.parametrize("case", list(_REFERENCE_STRIPS))
def test_qmc_matches_reference_estimator(monkeypatch, case):
    # The buffered pipeline gives the bits of the plain arithmetic where S is
    # real (a > 0), forked and in one process.  Where S is complex, the
    # reference takes S^k in complex arithmetic and the estimator in real
    # arithmetic: over these strips the value moved by at most 3.9e-16
    # relative and the standard error by 1.6e-15, so the bounds are 10x
    # those; the bits still do not depend on the worker count.
    ps, count = _REFERENCE_STRIPS[case]
    f, spec = Integrand6D(ps), QmcSpec(count=count)
    want = qmc_reference(f, spec)
    got = integrate_6d_qmc(f, spec)
    if isinstance(f.log_a, complex):
        assert abs(got[0] - want[0]) <= 4e-15 * abs(want[0])
        assert abs(got[1] - want[1]) <= 2e-14 * want[1]
    else:
        assert _bits(got) == _bits(want)
    _pin(monkeypatch, 1)
    assert _bits(integrate_6d_qmc(f, spec)) == _bits(got)


def test_qmc_non_finite_sample_names_global_index(monkeypatch):
    calls = []
    x_kernel = Integrand6D.x_kernel

    def poisoned(self, x, *args, **kwargs):
        out = x_kernel(self, x, *args, **kwargs)
        if len(calls) == 3:  # the fourth chunk of the first replicate
            out[5] = np.nan
        calls.append(len(x))
        return out

    monkeypatch.setattr(Integrand6D, "x_kernel", poisoned)
    with pytest.raises(NonFiniteSampleError, match=f"at point {3 * quad._QMC_CHUNK + 5}$"):
        integrate_6d_qmc(Integrand6D(REAL_COUPLING), QmcSpec(count=1 << 16))


@pytest.mark.skipif(_available_cpus() < 2, reason="needs 2 CPUs")
def test_qmc_replicates_split_between_processes(monkeypatch):
    seen = []
    share = quad._qmc_share
    monkeypatch.setattr(quad, "_qmc_share", lambda rs, *args: seen.extend(rs) or share(rs, *args))
    f = Integrand6D(REAL_COUPLING)
    # A child's calls land in its own copy of ``seen``.
    for cpus, count, ours in (
        (2, 2 * quad._QMC_CHUNK, [0, 2, 4, 6]),
        (1, 2 * quad._QMC_CHUNK, list(range(8))),
        (2, quad._QMC_CHUNK, list(range(8))),  # one chunk: not worth a fork
    ):
        _pin(monkeypatch, cpus)
        seen.clear()
        integrate_6d_qmc(f, QmcSpec(count=count))
        assert seen == ours, (cpus, count)


def _assert_no_children() -> None:
    """No child of this process is left, running or unreaped, however it was made."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FORK_LEAVES_NO_MODULES = """
import os, sys
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from sixfold.core import ParameterSet
from sixfold.quad import Integrand6D, QmcSpec, integrate_6d_qmc
integrate_6d_qmc(Integrand6D(ParameterSet(k=3, a=0.8, m=0.4, u=-0.6, v=0.9, mu=-0.3, nu=1.6)), QmcSpec(count=1 << 15))
print(len(forks), *sorted({"multiprocessing", "socket"} & set(sys.modules)))
"""


@pytest.mark.skipif(_available_cpus() < 2, reason="needs 2 CPUs")
def test_forked_qmc_call_imports_no_process_machinery():
    # The workers are bare forks with pipes, so a forked call leaves
    # multiprocessing and socket out of the caller's modules.
    child = subprocess.run(
        [sys.executable, "-c", _FORK_LEAVES_NO_MODULES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(quad.__file__).parents[1])},
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    forks, *modules = child.stdout.split()
    assert int(forks) >= 1 and modules == []


def test_qmc_without_fork_stays_in_process(monkeypatch):
    f, spec = Integrand6D(REAL_COUPLING), QmcSpec(count=2 * quad._QMC_CHUNK)
    _pin(monkeypatch, 1)
    want = _bits(integrate_6d_qmc(f, spec))
    seen = []
    share = quad._qmc_share
    monkeypatch.setattr(quad, "_qmc_share", lambda rs, *args: seen.extend(rs) or share(rs, *args))
    monkeypatch.delattr(os, "fork")
    _pin(monkeypatch, 2)
    assert _bits(integrate_6d_qmc(f, spec)) == want
    assert seen == list(range(8))
    _assert_no_children()


# Two chunks per replicate in the fault-injection tests.
_INJECT_COUNT = 2 * quad._QMC_CHUNK


def _inject(monkeypatch, fault):
    """Run ``fault(r, out)`` on every x-kernel array of replicate r, at
    ``_INJECT_COUNT`` points: call i of a share's x kernel belongs to its
    replicate number i // 2."""
    share, x_kernel = quad._qmc_share, Integrand6D.x_kernel
    state = {}

    def spy(rs, *args):
        state.update(rs=rs, calls=0)
        return share(rs, *args)

    def kernel(self, x, *args, **kwargs):
        out = x_kernel(self, x, *args, **kwargs)
        fault(state["rs"][state["calls"] // 2], out)
        state["calls"] += 1
        return out

    monkeypatch.setattr(quad, "_qmc_share", spy)
    monkeypatch.setattr(Integrand6D, "x_kernel", kernel)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail a test that waits longer than ``seconds`` instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_qmc_child_error_is_the_in_process_error(monkeypatch):
    def poison(r, out):
        if r in (1, 2):  # a child's replicate, then one of the caller's
            out[10 + r] = np.nan

    _inject(monkeypatch, poison)
    messages = []
    for cpus in (1, 2):
        _pin(monkeypatch, cpus)
        with pytest.raises(NonFiniteSampleError) as info:
            integrate_6d_qmc(Integrand6D(REAL_COUPLING), QmcSpec(count=_INJECT_COUNT))
        messages.append(str(info.value))
    # Replicate 1, the lowest that raised, as the one-process loop has it.
    assert messages == ["non-finite QMC sample at point 11"] * 2


def test_qmc_child_programming_error_propagates_from_verify(monkeypatch):
    def bad_operand(r, out):
        if r == 3:
            raise TypeError("bad operand in a child")

    _inject(monkeypatch, bad_operand)
    _pin(monkeypatch, 2)
    with pytest.raises(TypeError, match="bad operand in a child"):
        verify("theorem", REFERENCE, paths=("qmc", "closed"), qmc_spec=QmcSpec(count=_INJECT_COUNT))
    _assert_no_children()


def test_qmc_child_that_dies_raises_promptly(monkeypatch):
    caller = os.getpid()

    def die_in_child(r, out):
        if os.getpid() != caller:
            os._exit(3)

    _inject(monkeypatch, die_in_child)
    _pin(monkeypatch, 2)
    with _deadline(60), pytest.raises(RuntimeError, match="exited with code 3 without sending"):
        integrate_6d_qmc(Integrand6D(REAL_COUPLING), QmcSpec(count=_INJECT_COUNT))
    _assert_no_children()


class _Abort(BaseException):
    """Stands for an interrupt: no replicate's outcome can hold it."""


def _abort():
    raise _Abort


@pytest.mark.parametrize(
    "leave, code",
    [(_abort, 1), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
    ids=["base_exception", "sigkill"],
)
def test_qmc_child_that_leaves_unsent_is_reported_and_reaped(monkeypatch, leave, code):
    # A BaseException does not climb out of the child into this test run:
    # the child exits with code 1 and the caller alone goes on.
    caller = os.getpid()
    f, spec = Integrand6D(REAL_COUPLING), QmcSpec(count=_INJECT_COUNT)
    _pin(monkeypatch, 1)
    want = _bits(integrate_6d_qmc(f, spec))

    def leave_in_child(r, out):
        if os.getpid() != caller:
            leave()

    _inject(monkeypatch, leave_in_child)
    _pin(monkeypatch, 2)
    try:
        with _deadline(60), pytest.raises(RuntimeError, match=f"exited with code {code} without sending them$"):
            integrate_6d_qmc(f, spec)
    finally:
        if os.getpid() != caller:  # a child that climbed out into this test stops here, with code 42
            os._exit(42)
    _assert_no_children()
    monkeypatch.undo()
    _pin(monkeypatch, 2)
    assert _bits(integrate_6d_qmc(f, spec)) == want
    _assert_no_children()


def test_qmc_children_do_not_outlive_a_failing_caller(monkeypatch):
    caller = os.getpid()

    def stall_child_abort_caller(r, out):
        if os.getpid() != caller:
            time.sleep(600)
        raise _Abort

    _inject(monkeypatch, stall_child_abort_caller)
    _pin(monkeypatch, 2)
    with _deadline(60), pytest.raises(_Abort):
        integrate_6d_qmc(Integrand6D(REAL_COUPLING), QmcSpec(count=_INJECT_COUNT))
    _assert_no_children()


def _qmc_in_pool_worker(spec):
    return integrate_6d_qmc(Integrand6D(REAL_COUPLING), spec)


def test_qmc_in_pool_worker_stays_in_process(monkeypatch):
    # Pool workers are daemonic and may not start children.
    _pin(monkeypatch, 2)
    spec = QmcSpec(count=1 << 15)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_qmc_in_pool_worker, (spec,)).get(timeout=60)
    assert got == integrate_6d_qmc(Integrand6D(REAL_COUPLING), spec)


def test_qmc_in_daemonic_process_stays_in_process(monkeypatch):
    # The pool test's fallback, taken in this process.
    f, spec = Integrand6D(REAL_COUPLING), QmcSpec(count=2 * quad._QMC_CHUNK)
    _pin(monkeypatch, 2)
    want = _bits(integrate_6d_qmc(f, spec))
    seen = []
    share = quad._qmc_share
    monkeypatch.setattr(quad, "_qmc_share", lambda rs, *args: seen.append(rs) or share(rs, *args))
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert _bits(integrate_6d_qmc(f, spec)) == want
    assert seen == [range(0, 8)]


def test_qmc_seed_changes_value():
    f = Integrand6D(REFERENCE)
    v1, _ = integrate_6d_qmc(f, QmcSpec(count=1 << 12, shift_seed=1))
    v2, _ = integrate_6d_qmc(f, QmcSpec(count=1 << 12, shift_seed=2))
    assert v1 != v2


def test_qmc_coverage_on_reference():
    # 3-sigma bracket of the tensor value in at least 95 of 100 replications
    target = _tensor_sum(Integrand6D(REFERENCE), _ref_rules())
    f = Integrand6D(REFERENCE)
    hits = 0
    for seed in range(100):
        val, se = integrate_6d_qmc(f, QmcSpec(count=1 << 14, shift_seed=seed))
        if abs(val - target) <= 3.0 * se:
            hits += 1
    assert hits >= 95, hits


def test_qmc_inadmissible_regime():
    for k in (-1.0, 0.5):  # a = 1 > 0 with k not a non-negative integer
        ps = REFERENCE.replace(k=k)
        with pytest.raises(UnsupportedRegimeError, match="k is not a non-negative integer"):
            integrate_6d_qmc(Integrand6D(ps), QmcSpec(count=1 << 10))


def test_qmc_negative_a_bounded_coupling_allowed():
    ps = REFERENCE.replace(k=-1.0, a=-2.0)
    val, se = integrate_6d_qmc(Integrand6D(ps), QmcSpec(count=1 << 12, shift_seed=5))
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    assert se >= 0.0


def test_qmc_head_warp_underflow_stays_finite():
    f = Integrand6D(NEAR_BETA_MINUS_ONE)
    assert -0.993 < f.betas[0] < -0.992
    val, se = integrate_6d_qmc(f, QmcSpec(count=1 << 12, shift_seed=20170))
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    assert math.isfinite(se) and se > 0.0


def test_qmc_head_substitution_does_not_overflow():
    f = Integrand6D(NEARER_BETA_MINUS_ONE)
    assert -0.999 < f.betas[0] < -0.998
    with np.errstate(over="raise"):
        val, se = integrate_6d_qmc(f, QmcSpec(count=1 << 16, shift_seed=20170))
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    assert math.isfinite(se) and se > 0.0


def test_qmc_rejects_log_axis_exponent_below_minus_one(monkeypatch):
    def fail(*args):
        raise AssertionError("points or shifts generated before the check")

    monkeypatch.setattr(quad, "sobol_points", fail)
    monkeypatch.setattr(quad, "_splitmix64_stream", fail)
    # beta_p = (0.5 - 0.5 - 2.4) / 2 = -1.2; beta_z = (0.5 - 0 - 2 - 1) / 2 = -1.25
    for ps in (REFERENCE.replace(mu=-0.5, nu=2.4), REFERENCE.replace(v=2.0)):
        f = Integrand6D(ps)  # a real strip builds; QMC's own guard refuses it
        with pytest.raises(DomainError, match="Re\\(beta\\) > -1"):
            integrate_6d_qmc(f, QmcSpec(count=1 << 22))


def _coupling(f: Integrand6D, s_re: np.ndarray) -> np.ndarray:
    """S^k at S = s_re + i Im(log a), from ``coupling`` with unit weights."""
    n = len(s_re)
    re, im = np.empty(n), np.empty(n) if isinstance(f.log_a, complex) else None
    f.coupling(s_re.copy(), np.zeros(n), np.ones(n), re, im)
    return re if im is None else re + 1j * im


def _cmath_power(k: complex, s: complex) -> complex:
    """Principal S^k by cmath, repeated products for integer k."""
    if k.imag == 0 and k.real == int(k.real):
        return s ** int(k.real)
    return cmath.exp(k * cmath.log(s))


# Over these inputs the worst relative distance from cmath is 2.3e-15 for
# integer k (at k = -10) and 2.9e-14 otherwise (at k = 10.5 + 2i), no more
# than cmath's own distance from 40-digit mpmath (1.2e-15 and 2.7e-14); the
# bounds are about twice those.
@pytest.mark.parametrize(
    "k",
    [*range(-10, 11), 0.5, -0.37, 1.7, 3.8, -4.2, 10.5, 1.7 + 0.6j, -2.3 - 1.1j, 10.5 + 2j, 0.3j],
)
def test_coupling_matches_cmath(k):
    rng = np.random.default_rng(11)
    s_re = np.concatenate(
        [rng.uniform(-3.0, 3.0, 60), rng.uniform(-1e3, 1e3, 20), rng.uniform(-1e-6, 1e-6, 20), [0.0, -0.0]]
    )
    worst = 0.0
    for c in (1e-12, 1e-6, 0.01, 0.5, 1.0, 2.0, math.pi, -0.8, -math.pi):
        # a = e^(ic) puts Im log a = c; the strip parameters do not enter.
        f = Integrand6D(REFERENCE.replace(k=k, a=cmath.exp(1j * c)))
        assert f.log_a.imag == pytest.approx(c, rel=1e-15)
        c = f.log_a.imag
        got = _coupling(f, s_re)
        want = np.array([_cmath_power(complex(k), complex(x, c)) for x in s_re])
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst < (5e-15 if isinstance(k, int) else 6e-14), worst


def test_coupling_real_s_is_repeated_products():
    # a > 0: S is real and S^k the plain float64 products, bit for bit.
    s_re = np.random.default_rng(3).uniform(-4.0, 4.0, 300)
    for k in range(7):
        got = _coupling(Integrand6D(REFERENCE.replace(k=k, a=1.7)), s_re)
        want = np.ones_like(s_re)
        for _ in range(k):
            want *= s_re
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "k, a",
    [*((k, 1.7) for k in range(7)), (0, -2.0), (-1, -2.0), (-3, -2.0), (2, -2.0), (1.7, -1.3 + 0.4j)],
)
def test_coupling_allocates_no_array(k, a):
    # Every branch writes into the caller's buffers: on a 2^14-point chunk
    # one float64 array would be 128 KB.
    f = Integrand6D(REFERENCE.replace(k=k, a=a))
    rng = np.random.default_rng(5)
    n = 1 << 14
    s_re, log_w, prod = rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n)
    re, im = np.empty(n), np.empty(n) if isinstance(f.log_a, complex) else None
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f.coupling(s_re, log_w, prod, re, im)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak


def test_coupling_complex_s_at_k_zero_is_the_weight():
    # S^0 = 1 whatever S is: Re is prod e^(log_w) bit for bit, Im zero.
    f = Integrand6D(REFERENCE.replace(k=0, a=-2.0))
    rng = np.random.default_rng(6)
    s_re, log_w, prod = rng.uniform(-3.0, 3.0, 300), rng.uniform(-1.0, 1.0, 300), rng.uniform(0.5, 2.0, 300)
    want = prod * np.exp(log_w)
    re, im = np.full(300, np.nan), np.full(300, np.nan)
    f.coupling(s_re, log_w, prod, re, im)
    assert np.array_equal(re, want) and np.array_equal(im, np.zeros(300))


@pytest.mark.parametrize("k", [-1, -3])
def test_coupling_negative_integer_power(k):
    rng = np.random.default_rng(7)
    s_re = rng.uniform(-3.0, 3.0, 200)
    f = Integrand6D(REFERENCE.replace(k=k, a=-2.0))  # Im log a = pi
    got = _coupling(f, s_re)
    expect = np.array([cmath.exp(k * cmath.log(complex(x, math.pi))) for x in s_re])
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-14


def test_coupling_negative_integer_power_zero_guard():
    # Unless k is a non-negative integer, S must stay off 0; |S| >= |Im log a|,
    # so Im log a = 0 (a > 0) or below 1e-300 raises before any point.
    s_re = np.array([1.0, 0.0])
    for k in (-1, -3, 0.5):
        for a in (2.0, complex(1.0, 1e-310)):
            with pytest.raises(NonFiniteSampleError, match="can hit zero"):
                _coupling(Integrand6D(REFERENCE.replace(k=k, a=a)), s_re)
        assert np.all(np.isfinite(_coupling(Integrand6D(REFERENCE.replace(k=k, a=-2.0)), s_re)))


def test_near_real_strip_gives_one_integrand():
    # Imaginary parts below the real-strip tolerance are dropped once, in
    # Integrand6D, so both direct paths give the exactly real strip's bits.
    real = Integrand6D(REAL_COUPLING)
    near = Integrand6D(REAL_COUPLING.replace(m=0.4 + 5e-13j, v=0.9 - 3e-13j))
    rules = _rules(real.betas)
    spec = QmcSpec(count=1 << 10)
    for got, want in (
        (_tensor_sum(near, rules), _tensor_sum(real, rules)),
        (integrate_6d_qmc(near, spec)[0], integrate_6d_qmc(real, spec)[0]),
    ):
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("ps", [REAL_COUPLING, REFERENCE])
def test_kernels_take_their_series_once(ps):
    # Integrand6D takes each kernel's Gauss-series coefficients once; the
    # kernels it gives must be those kernel_factor_array finds on its own,
    # bit for bit: non-integer order and the terminating series of integer
    # degree.
    f = Integrand6D(ps)
    x = np.random.default_rng(5).uniform(0.0, 1.0, 300)
    ref_x = quad.kernel_factor_array(ps.v.real, ps.u.real, x, 1.0 - x)
    ref_y = quad.kernel_factor_array(ps.nu.real, ps.mu.real, x, 1.0 - x)
    assert np.array_equal(f.x_kernel(x, 1.0 - x), ref_x)
    assert np.array_equal(f.y_kernel(x, 1.0 - x), ref_y)
    # Rows lent as the QMC estimator lends them, x in the row for 1 - x,
    # change no bit.
    rows = np.empty((4, 300))
    for kernel, v, u in ((f.x_kernel, ps.v.real, ps.u.real), (f.y_kernel, ps.nu.real, ps.mu.real)):
        rows[1] = x
        got = kernel(rows[1], out=tuple(rows))
        assert np.shares_memory(got, rows[0])
        assert np.array_equal(got, quad.kernel_factor_array(v, u, x))
