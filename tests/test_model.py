import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlsim.errors import ConfigError
from cwlsim.hilbert import trace_distance
from cwlsim.integrator import propagate
from cwlsim.model import (BinSpec, SystemConfig, _drive_free, _superoperators, build_hamiltonian,
                          build_jump_operators, get_generator, liouvillian_apply,
                          mode_gv, resolve_cutoff)
from cwlsim.presets import (METRO_PAIR_BIN, METRO_PAIR_CFG, METRO_SINGLE_BIN, METRO_SINGLE_CFG,
                            PARITY_BIN, PARITY_DRIVE)


def test_mode_gv_end_of_unit_bin():
    b = BinSpec(t0=0.0, tau=1.0)
    assert mode_gv(b, 1.0, kappa=1.0) == pytest.approx(-1.0)
    # value -1/sqrt(tau) = -sqrt(kappa) when tau = 1/kappa
    b2 = BinSpec(t0=0.0, tau=0.25)
    assert mode_gv(b2, 0.25, kappa=4.0) == pytest.approx(-2.0)


def test_mode_gv_outside_bin_zero():
    b = BinSpec(t0=1.0, tau=2.0)
    assert mode_gv(b, 0.5) == 0
    assert mode_gv(b, 1.0) == 0  # opening edge excluded
    assert mode_gv(b, 3.0 + 1e-9) == 0


def test_mode_gv_clamped_near_opening():
    b = BinSpec(t0=2.0, tau=1.0)
    assert mode_gv(b, 2.0 + 1e-8) == pytest.approx(-1e3)
    # clamp respects the configured magnitude
    b2 = BinSpec(t0=2.0, tau=1.0, g_max=10.0)
    assert mode_gv(b2, 2.0 + 1e-8) == pytest.approx(-10.0)


def test_mode_gv_interior_value():
    b = BinSpec(t0=1.5, tau=2.0)
    t = 2.5
    assert mode_gv(b, t) == pytest.approx(-1.0 / math.sqrt(t - 1.5))


def test_hamiltonian_m0_outside_bin_vanishes():
    cfg = SystemConfig(alpha=0.7, M=0)
    b = BinSpec(t0=1.0, tau=1.0)
    h = build_hamiltonian(cfg, b, 0.5).toarray()
    assert np.max(np.abs(h)) == 0.0


def test_hamiltonian_m1_drive_term_entrywise():
    # outside the bin H = i sqrt(k) a (s- - s+) for real drive a
    cfg = SystemConfig(alpha=0.8, M=1)
    b = BinSpec(t0=5.0, tau=1.0)
    h = build_hamiltonian(cfg, b, 1.0).toarray()
    cav = resolve_cutoff(cfg, b) + 1
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    expected = 1j * 0.8 * np.kron(lower - lower.T, np.eye(cav))
    assert np.max(np.abs(h - expected)) < 1e-12


def test_hamiltonian_m2_chiral_exchange_antisymmetric_part():
    # the emitter-emitter coupling is -i k/2 (s2+ s1- - s1+ s2-), i > j only
    cfg = SystemConfig(alpha=0.0, M=2)
    b = BinSpec(t0=5.0, tau=1.0)
    h = build_hamiltonian(cfg, b, 1.0).toarray()
    cav = resolve_cutoff(cfg, b) + 1
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    s1 = np.kron(np.kron(lower, np.eye(2)), np.eye(cav))
    s2 = np.kron(np.kron(np.eye(2), lower), np.eye(cav))
    expected = -0.5j * (s2.conj().T @ s1 - s1.conj().T @ s2)
    assert np.max(np.abs(h - expected)) < 1e-12


def test_hamiltonian_hermitian_at_sampled_times():
    cfg = SystemConfig(alpha=0.5 + 0.2j, M=2, Gamma=0.1)
    b = BinSpec(t0=0.5, tau=1.5)
    for t in (0.2, 0.5001, 0.9, 1.7, 2.0):
        h = build_hamiltonian(cfg, b, t).toarray()
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_jump_operators_m0_single_cavity_channel():
    cfg = SystemConfig(alpha=0.7, M=0)
    b = BinSpec(t0=0.0, tau=1.0)
    ops = build_jump_operators(cfg, b, 0.5)
    assert len(ops) == 1
    op, rate = ops[0]
    assert rate == 1.0
    g = mode_gv(b, 0.5)
    a = np.diag(np.sqrt(np.arange(1.0, op.shape[0])), k=1)
    assert np.max(np.abs(op.toarray() - np.conj(g) * a)) < 1e-12


def test_jump_operators_m1_collective_channel_in_bin():
    cfg = SystemConfig(alpha=0.9, M=1)
    b = BinSpec(t0=0.0, tau=2.0)
    t = 1.3
    ops = build_jump_operators(cfg, b, t)
    assert len(ops) == 2  # collective channel + Gamma channel at rate 0
    op, rate = ops[0]
    cav = op.shape[0] // 2
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    a = np.diag(np.sqrt(np.arange(1.0, cav)), k=1)
    g = mode_gv(b, t)
    expected = np.kron(lower, np.eye(cav)) + np.conj(g) * np.kron(np.eye(2), a)
    assert np.max(np.abs(op.toarray() - expected)) < 1e-12


def test_jump_operator_counting_m3():
    cfg = SystemConfig(alpha=0.5, M=3, Gamma=0.2, gamma_D=0.3)
    b = BinSpec(t0=0.0, tau=1.0)
    ops = build_jump_operators(cfg, b, 0.5)
    assert len(ops) == 1 + 3 + 3
    rates = [r for _, r in ops]
    assert rates == [1.0] + [0.2] * 3 + [0.3] * 3


@pytest.mark.parametrize("kwargs", [
    {"M": 0.5}, {"M": 2.0}, {"M": True}, {"kappa": math.nan}, {"Gamma": math.inf},
    {"alpha": complex(0.5, math.nan)}, {"alpha": "0.5"}, {"cavity_cutoff": 6.5},
])
def test_system_fields_typed_and_finite(kwargs):
    with pytest.raises(ConfigError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"rtol": 0.0}, {"atol": -1.0}, {"atol": math.inf}, {"dim_limit": 0},
    {"output_points": 1}, {"output_points": 0}, {"rtol": math.nan}, {"dim_limit": 64.0},
])
def test_numerics_validates_itself(kwargs):
    from cwlsim.model import Numerics

    with pytest.raises(ConfigError):
        Numerics(**kwargs)


def test_bin_defaults_and_fields():
    assert BinSpec() == BinSpec(t0=0.0, tau=1.0)
    for kwargs in ({"t0": math.nan}, {"tau": math.inf}, {"g_max": "big"}):
        with pytest.raises(ConfigError):
            BinSpec(**kwargs)


def test_dimension_guard():
    from cwlsim.model import Numerics

    cfg = SystemConfig(alpha=0.5, M=6, numerics=Numerics(dim_limit=100))
    with pytest.raises(ConfigError):
        build_hamiltonian(cfg, BinSpec(t0=0.0, tau=2.0), 1.0)


def _random_state(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def test_liouvillian_trace_free_and_hermitian():
    cfg = SystemConfig(alpha=0.6, M=1, Gamma=0.3)
    b = BinSpec(t0=0.2, tau=1.0)
    dim = 2 * (resolve_cutoff(cfg, b) + 1)
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho = _random_state(rng, dim)
        out = liouvillian_apply(cfg, b, 0.7, rho)
        assert abs(np.trace(out)) < 1e-10 * np.linalg.norm(rho)
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


def _dense_lindblad(H, jumps, rho):
    out = -1j * (H @ rho - rho @ H)
    for L, r in jumps:
        LdL = L.conj().T @ L
        out += r * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


@pytest.mark.parametrize("M, kappa", [pytest.param(m, 1.0, id=str(m)) for m in range(4)]
                         + [pytest.param(2, 0.6, id="2-kappa0.6")])
def test_liouvillian_matches_dense_lindblad(M, kappa):
    # dense -i[H, rho] + sum r (L rho L+ - {L+ L, rho}/2) built from the
    # Hamiltonian and jump list against the operator form of liouvillian_apply
    # and against the real superoperator stacks the integrator steps: the
    # displaced generator, which is the same master equation with H - g V1,
    # and the emitter-only one, the cavity-vacuum block of H and the jumps;
    # kappa != 1 weighs the channels unequally, so their sums round apart
    cfg = SystemConfig(alpha=0.6 - 0.2j, M=M, Gamma=0.3, gamma_D=0.2, kappa=kappa,
                       cavity_cutoff=5)
    b = BinSpec(t0=0.5, tau=1.0)
    dim_e = 3**M
    dim = dim_e * 6
    b_op = np.kron(np.eye(dim_e), np.diag(np.sqrt(np.arange(1.0, 6)), k=1))
    al = cfg.alpha_phys
    V1 = 1j * (np.conj(al) * b_op - al * b_op.conj().T)
    vac = np.ix_(np.arange(dim_e) * 6, np.arange(dim_e) * 6)
    displaced, emitters = get_generator(cfg, b), get_generator(cfg, b, 1)
    rng = np.random.default_rng(11 + M)

    def check(fast, dense):
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))

    # before the bin, mid-bin, inside the g_max clamp region, bin end
    for t in (0.2, 1.0, 0.5 + 1e-8, 1.5):
        H = build_hamiltonian(cfg, b, t).toarray()
        jumps = [(L.toarray(), r) for L, r in build_jump_operators(cfg, b, t)]
        assert len(jumps) == 1 + 2 * M
        g = mode_gv(b, t, cfg.kappa).real
        for _ in range(3):
            rho = _random_state(rng, dim)
            check(liouvillian_apply(cfg, b, t, rho), _dense_lindblad(H, jumps, rho))
            check(displaced.apply_vec(t, rho.reshape(-1)).reshape(dim, dim),
                  _dense_lindblad(H - g * V1, jumps, rho))
            rho_e = _random_state(rng, dim_e)
            check(emitters.apply_vec(t, rho_e.reshape(-1)).reshape(dim_e, dim_e),
                  _dense_lindblad(H[vac], [(L[vac], r) for L, r in jumps], rho_e))


def test_liouvillian_rejects_a_state_of_the_wrong_shape():
    cfg = SystemConfig(alpha=0.6, M=1)
    b = BinSpec(t0=0.2, tau=1.0)
    dim = 2 * (resolve_cutoff(cfg, b) + 1)
    for shape in ((dim - 2, dim - 2), (dim, dim - 1), (dim * dim,)):
        with pytest.raises(ConfigError, match="does not match model dim"):
            liouvillian_apply(cfg, b, 0.7, np.zeros(shape))


def test_liouvillian_stationary_vacuum():
    cfg = SystemConfig(alpha=0.0, M=1)
    b = BinSpec(t0=1.0, tau=1.0)
    dim = 2 * (resolve_cutoff(cfg, b) + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    out = liouvillian_apply(cfg, b, 0.5, rho)
    assert np.max(np.abs(out)) < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_liouvillian_linearity(seed):
    cfg = SystemConfig(alpha=0.4, M=1)
    b = BinSpec(t0=0.0, tau=1.0)
    dim = 2 * (resolve_cutoff(cfg, b) + 1)
    rng = np.random.default_rng(seed)
    r1 = _random_state(rng, dim)
    r2 = _random_state(rng, dim)
    a, c = rng.normal(), rng.normal()
    lhs = liouvillian_apply(cfg, b, 0.6, a * r1 + c * r2)
    rhs = a * liouvillian_apply(cfg, b, 0.6, r1) + c * liouvillian_apply(cfg, b, 0.6, r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_excited_population_decay_rate():
    # at zero drive the excited population obeys dp/dt = -(k + G + gD) p
    cfg = SystemConfig(alpha=0.0, M=1, Gamma=0.4, gamma_D=0.3)
    b = BinSpec(t0=10.0, tau=1.0)
    cav = resolve_cutoff(cfg, b) + 1
    dim = 3 * cav
    rho = np.zeros((dim, dim), dtype=complex)
    rho[cav, cav] = 1.0  # emitter excited, cavity vacuum
    out = liouvillian_apply(cfg, b, 0.5, rho)
    p_dot = np.real(np.trace(out[cav : 2 * cav, cav : 2 * cav]))
    assert p_dot == pytest.approx(-(1.0 + 0.4 + 0.3), rel=1e-12)


def test_kappa_scaling_invariance():
    base_cfg = SystemConfig(alpha=0.6, M=1, Gamma=0.2, gamma_D=0.1)
    base_bin = BinSpec(t0=0.8, tau=1.2)
    r_ref = propagate(base_cfg, base_bin).rho_v
    for s in (0.5, 2.0):
        cfg = dataclasses.replace(base_cfg, kappa=s)
        b = BinSpec(t0=0.8 / s, tau=1.2 / s)
        r = propagate(cfg, b).rho_v
        assert trace_distance(r_ref.mat, r.mat) < 1e-6


def test_clamp_convergence():
    cfg = SystemConfig(alpha=0.7, M=1)
    r1 = propagate(cfg, BinSpec(t0=0.5, tau=1.0)).rho_v
    r2 = propagate(cfg, BinSpec(t0=0.5, tau=1.0, g_max=2e3)).rho_v
    assert trace_distance(r1.mat, r2.mat) < 1e-5


def test_generator_superoperators_shared_across_bins():
    cfg = SystemConfig(alpha=0.5, M=1)
    a, b = BinSpec(t0=1.0, tau=2.0), BinSpec(t0=3.0, tau=0.5)
    ga, gb = get_generator(cfg, a, 9), get_generator(cfg, b, 9)
    assert ga.L is gb.L and ga.ops is gb.ops  # the stacked real form [R0; R1; R2]
    assert ga.g(2.0) == mode_gv(a, 2.0).real and gb.g(2.0) == 0.0  # each bin keeps its g(t)


def test_rhs_without_r2_reads_the_stack_in_place():
    # the bin's tail steps R0 + c R1 on the leading rows of L itself: R2's
    # entries are skipped and no block is copied
    gen = get_generator(METRO_PAIR_CFG, METRO_PAIR_BIN, 11)
    assert np.shares_memory(gen._head.data, gen.L.data)
    assert np.shares_memory(gen._head.indices, gen.L.indices)
    x = np.random.default_rng(3).normal(size=gen.dim**2)
    R0, R1, R2 = gen.L0, gen.L1, gen.L2
    for g, g2 in ((0.0, 0.0), (-0.4, 0.0), (-30.0, 900.0)):
        ref = R0 @ x + g * (R1 @ x) + g2 * (R2 @ x)
        assert np.max(np.abs(gen.rhs(x, g, g2) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_generator_of_a_run_is_the_one_it_stepped_on():
    # the generator at the run's own cutoff is a cache hit: the stack the bin
    # was stepped on, not another assembly
    cfg, b = METRO_SINGLE_CFG, METRO_SINGLE_BIN
    cut = propagate(cfg, b).diagnostics.cutoff
    before = _superoperators.cache_info()
    gen = get_generator(cfg, b, cut + 1)
    after = _superoperators.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert gen.dim == cfg.levels**cfg.M * (cut + 1)


def _clear_generator_caches():
    _superoperators.cache_clear()
    _drive_free.cache_clear()


def test_superoperators_cached_on_physics_alone():
    # a propagation that differs only in its numerics reuses the cached
    # superoperators, and the dimension limit is still checked on every call;
    # a propagation looks up one generator, the bin's, whose vacuum block the
    # segment before t0 steps on
    _clear_generator_caches()
    cut = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN).diagnostics.cutoff
    before = _superoperators.cache_info()
    num = dataclasses.replace(METRO_SINGLE_CFG.numerics, output_points=2)
    propagate(dataclasses.replace(METRO_SINGLE_CFG, numerics=num), METRO_SINGLE_BIN)
    after = _superoperators.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    dim = METRO_SINGLE_CFG.levels**METRO_SINGLE_CFG.M * (cut + 1)
    small = dataclasses.replace(METRO_SINGLE_CFG.numerics, dim_limit=dim - 1)
    with pytest.raises(ConfigError, match="exceeds configured limit"):
        get_generator(dataclasses.replace(METRO_SINGLE_CFG, numerics=small), METRO_SINGLE_BIN,
                      cut + 1)
    assert _superoperators.cache_info().misses == after.misses
    # another drive assembles its one generator anew, from the drive-free terms
    free = _drive_free.cache_info()
    propagate(dataclasses.replace(METRO_SINGLE_CFG, alpha=0.19), METRO_SINGLE_BIN)
    assert _superoperators.cache_info().misses == after.misses + 1
    assert _drive_free.cache_info().misses == free.misses
    assert _drive_free.cache_info().hits == free.hits + 1


def _bits(L):
    return L.data.tobytes(), L.indices.tobytes(), L.indptr.tobytes()


@pytest.mark.parametrize("cav_dims", [(1,), (1, 5), (5,)],
                         ids=["emitters", "emitters-displaced", "displaced"])
@pytest.mark.parametrize("physics", [dict(M=0), dict(M=1), dict(M=2, Gamma=0.3),
                                     dict(M=1, gamma_D=0.4, kappa=1.7),
                                     dict(M=2, Gamma=0.2, gamma_D=0.5, kappa=0.6)],
                         ids=["M0", "M1", "M2-Gamma", "M1-gammaD-kappa", "M2-both-kappa"])
def test_generator_bit_identical_whatever_the_cache_held(physics, cav_dims):
    # a generator assembled after another drive of the same physics, from the
    # cached drive-free terms, is the cold one bit for bit; the drive enters
    # through alpha_phys = alpha sqrt(kappa), so kappa != 1 scales it. With
    # both cavity dimensions cached at once, neither takes the other's terms
    b = BinSpec(t0=1.0, tau=2.0)
    cfg = SystemConfig(alpha=0.5 - 0.2j, **physics)
    _clear_generator_caches()
    cold = [get_generator(cfg, b, d).L for d in cav_dims]
    _clear_generator_caches()
    other = [get_generator(dataclasses.replace(cfg, alpha=1.1j), b, d).L for d in cav_dims]
    warm = [get_generator(cfg, b, d).L for d in reversed(cav_dims)][::-1]
    n = len(cav_dims)
    assert _drive_free.cache_info()[:2] == (n, n)  # (hits, misses)
    for w, c, o in zip(warm, cold, other):
        assert _bits(w) == _bits(c)
        if cfg.M > 0:  # the drive enters L
            assert _bits(o) != _bits(c)
    if n > 1:
        assert _bits(cold[0]) != _bits(cold[1])


@pytest.mark.parametrize("physics", [dict(M=0), dict(M=1, Gamma=0.3),
                                     dict(M=1, gamma_D=0.4, kappa=1.7),
                                     dict(M=2, Gamma=0.2, gamma_D=0.5, kappa=0.6),
                                     dict(M=3, Gamma=0.3, kappa=0.6)],
                         ids=["M0", "M1-Gamma", "M1-gammaD-kappa", "M2-both-kappa",
                              "M3-Gamma-kappa"])
def test_vacuum_block_is_the_emitter_generator(physics):
    # the segment before t0 steps on the bin generator's cavity-vacuum block:
    # it is the generator assembled at cavity dimension 1, bit for bit, with
    # the operators the output grid reads
    b = BinSpec(t0=1.0, tau=2.0)
    cfg = SystemConfig(alpha=0.5 - 0.2j, **physics)
    _clear_generator_caches()
    ref = get_generator(cfg, b, 1)
    for cav_dim in (2, 9):
        _clear_generator_caches()
        block = get_generator(cfg, b, cav_dim).vacuum()
        assert block.dim == ref.dim
        for L, R in zip((block.L0, block.L1, block.L2), (ref.L0, ref.L1, ref.L2)):
            assert _bits(L) == _bits(R)
        assert _bits(block.ops["b"]) == _bits(ref.ops["b"])
        for p, q in zip(block.ops["pops"], ref.ops["pops"], strict=True):
            assert p.diagonal().tobytes() == q.diagonal().tobytes()


@pytest.mark.parametrize("cfg, bin", [(METRO_SINGLE_CFG, METRO_SINGLE_BIN),
                                      (SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN)],
                         ids=["metro_single", "parity2"])
def test_shared_superoperators_leave_rho_v_bit_identical(cfg, bin):
    # rho_v from superoperators assembled for another bin, or from the
    # drive-free terms of another drive, is the cold-cache one, bit for bit
    _clear_generator_caches()
    propagate(cfg, BinSpec(t0=bin.t0 / 2, tau=bin.tau / 2))
    hits = _superoperators.cache_info().hits
    warm = propagate(cfg, bin).rho_v.mat
    assert _superoperators.cache_info().hits > hits
    _clear_generator_caches()
    propagate(dataclasses.replace(cfg, alpha=1.25 * cfg.alpha), bin)
    hits = _drive_free.cache_info().hits
    drive_warm = propagate(cfg, bin).rho_v.mat
    assert _drive_free.cache_info().hits > hits
    _clear_generator_caches()
    cold = propagate(cfg, bin).rho_v.mat
    assert warm.tobytes() == cold.tobytes() == drive_warm.tobytes()


def test_warm_generator_lookup_checks_no_fields(monkeypatch):
    # a cached generator is found from plain keys: no dataclass is built, so
    # no field check runs
    from cwlsim import model

    cfg, b = SystemConfig(alpha=0.4, M=1), BinSpec(t0=1.0, tau=2.0)
    gen = get_generator(cfg, b, 3)
    calls = []
    monkeypatch.setattr(model, "check_fields", calls.append)
    assert get_generator(cfg, b, 3).L is gen.L
    assert calls == []


def test_field_types_resolved_once_per_class(monkeypatch):
    # each dataclass resolves its annotations once, not on every construction
    from cwlsim import model

    SystemConfig(alpha=0.3)
    calls = []
    monkeypatch.setattr(model, "get_type_hints", lambda cls: calls.append(cls))
    SystemConfig(alpha=0.5, M=2)
    BinSpec(t0=0.5)
    assert calls == []
    with pytest.raises(ConfigError, match="'M' must be an integer, got 2.0"):
        SystemConfig(M=2.0)
