import numpy as np
import pytest

import attocell.beamforming as beamforming
from attocell.beamforming import (BeamformingSolution, EhTargets, PsdMatrix,
                                  build_eh_targets, extract_beams,
                                  required_power_linear, solve_aggregate_sdp,
                                  solve_aggregate_sdp_batch, verify_beamforming)
from attocell.channels import sample_rf_channel
from attocell.energy import LinearEhParams, NonlinearEhParams
from attocell.errors import (DimensionMismatchError, InfeasibleError,
                             SolverStallError, TargetUnreachableError)

RECT = NonlinearEhParams(max_harvest=24e-3, steepness=150.0, turn_on=14e-3)


def _random_channels(rng, n_dev, n_ant):
    vecs = [(rng.standard_normal(n_ant) + 1j * rng.standard_normal(n_ant))
            for _ in range(n_dev)]
    return [np.outer(v, v.conj()) for v in vecs], vecs


def test_build_eh_targets_inverts_rectifier():
    t = build_eh_targets([0.0, 1e-3, 6e-3], RECT)
    assert t.input_targets[0] == 0.0
    assert t.input_targets[1] == pytest.approx(0.00223614040330548, rel=1e-12)
    assert t.input_targets[2] == pytest.approx(0.00933364568876445, rel=1e-12)


def test_build_eh_targets_saturation():
    with pytest.raises(TargetUnreachableError):
        build_eh_targets([RECT.max_harvest], RECT)


def test_eh_targets_validation():
    with pytest.raises(ValueError):
        EhTargets(input_targets=np.array([1e-3, -1e-6]))
    with pytest.raises(ValueError):
        EhTargets(input_targets=np.array([np.inf]))


@pytest.mark.parametrize("raw", [[np.nan] * 3, [1e-3, np.nan, 2e-3],
                                 [1e-3, np.inf, 2e-3], [1e-3, -1e-6, 2e-3]])
def test_raw_array_targets_validated(raw):
    rng = np.random.default_rng(3)
    channels, _ = _random_channels(rng, 3, 4)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_aggregate_sdp(channels, np.array(raw))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        required_power_linear(channels, raw, LinearEhParams(efficiency=0.5))


def test_psd_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        PsdMatrix(entries=np.array([[1.0, 1.0], [0.0, 1.0]]), objective=2.0,
                  duals=np.zeros(1), gap=0.0, iterations=0)
    with pytest.raises(ValueError, match="PSD"):
        PsdMatrix(entries=np.array([[1.0, 0.0], [0.0, -1.0]]), objective=0.0,
                  duals=np.zeros(1), gap=0.0, iterations=0)
    with pytest.raises(DimensionMismatchError):
        PsdMatrix(entries=np.zeros((2, 3)), objective=0.0,
                  duals=np.zeros(1), gap=0.0, iterations=0)


def test_single_user_analytic():
    # one constraint: optimum is b / ||g||^2, rank one along g
    rng = np.random.default_rng(7)
    channels, vecs = _random_channels(rng, 1, 5)
    b = 3.7e-3
    sol = solve_aggregate_sdp(channels, np.array([b]))
    expect = b / float(np.vdot(vecs[0], vecs[0]).real)
    assert sol.objective == pytest.approx(expect, rel=1e-8)
    assert sol.gap_relative <= 1e-7
    beams = extract_beams(sol, channels)
    assert len(beams.beams) == 1
    assert beams.rank_one_ratio <= 1e-6


def test_randomized_certified_gap():
    rng = np.random.default_rng(42)
    for k in range(8):
        n_dev = int(rng.integers(1, 6))
        n_ant = int(rng.integers(2, 7))
        channels, _ = _random_channels(rng, n_dev, n_ant)
        b = rng.uniform(0.5e-3, 8e-3, n_dev)
        sol = solve_aggregate_sdp(channels, b)
        assert sol.gap_relative <= 1e-7, f"draw {k}"
        report = verify_beamforming(extract_beams(sol, channels), channels, b)
        assert report.ok


def test_positive_homogeneity():
    rng = np.random.default_rng(3)
    channels, _ = _random_channels(rng, 4, 5)
    b = rng.uniform(1e-3, 5e-3, 4)
    base = solve_aggregate_sdp(channels, b)
    scaled = solve_aggregate_sdp(channels, 1000.0 * b)
    assert scaled.objective == pytest.approx(1000.0 * base.objective, rel=1e-8)


def _assert_channel_scale_free(vecs, b, c):
    # h -> c h divides the optimum by c^2; both answers carry certificates
    base = solve_aggregate_sdp([np.outer(v, v.conj()) for v in vecs], b)
    scaled = solve_aggregate_sdp([np.outer(c * v, (c * v).conj()) for v in vecs], b)
    assert scaled.gap_relative <= 1e-7
    assert abs(scaled.objective * c**2 - base.objective) <= scaled.gap * c**2 + base.gap


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e-3, 1e3, 1e8])
def test_channel_scale_invariance(c):
    rng = np.random.default_rng(3)
    _, vecs = _random_channels(rng, 4, 5)
    _assert_channel_scale_free(vecs, rng.uniform(1e-3, 5e-3, 4), c)


def test_weak_channel_draw_that_stalled():
    # draw 37 of this family (4 antennas, 7 devices) once stalled with
    # every channel vector scaled by 1e-3
    rng = np.random.default_rng(42)
    for _ in range(38):
        n_ant = int(rng.integers(2, 7))
        _, vecs = _random_channels(rng, int(rng.integers(1, 8)), n_ant)
        b = rng.uniform(0.5e-3, 8e-3, len(vecs))
    assert (n_ant, len(vecs)) == (4, 7)
    _assert_channel_scale_free(vecs, b, 1e-3)


def test_duplicate_channels_collapse():
    rng = np.random.default_rng(11)
    channels, vecs = _random_channels(rng, 1, 4)
    b = np.array([2e-3, 2e-3, 2e-3])
    dup = [channels[0]] * 3
    sol = solve_aggregate_sdp(dup, b)
    single = solve_aggregate_sdp(channels, np.array([2e-3]))
    assert sol.objective == pytest.approx(single.objective, rel=1e-9)


def test_zero_targets_zero_matrix():
    rng = np.random.default_rng(5)
    channels, _ = _random_channels(rng, 3, 4)
    sol = solve_aggregate_sdp(channels, np.zeros(3))
    assert sol.objective == 0.0
    assert np.all(sol.entries == 0.0)
    beams = extract_beams(sol, channels)
    assert beams.beams == ()
    assert beams.total_power == 0.0
    assert beams.rank_one_ratio == 0.0


def test_slack_user_deletion_invariance():
    # a device with zero target exerts no pressure on the optimum
    rng = np.random.default_rng(9)
    channels, _ = _random_channels(rng, 3, 4)
    b = np.array([3e-3, 0.0, 1e-3])
    full = solve_aggregate_sdp(channels, b)
    reduced = solve_aggregate_sdp([channels[0], channels[2]],
                                  np.array([3e-3, 1e-3]))
    assert full.objective == reduced.objective
    np.testing.assert_array_equal(full.entries, reduced.entries)
    assert full.duals[1] == 0.0


def test_extraction_preserves_trace_and_delivery():
    rng = np.random.default_rng(21)
    channels, _ = _random_channels(rng, 4, 6)
    b = rng.uniform(1e-3, 4e-3, 4)
    sol = solve_aggregate_sdp(channels, b)
    beams = extract_beams(sol, channels)
    assert beams.total_power == pytest.approx(sol.objective, rel=1e-10)
    report = verify_beamforming(beams, channels, b, tol=1e-9)
    assert report.ok
    assert np.all(report.delivered >= b * (1 - 1e-8))
    assert np.all(report.complementary)


def test_scenario_channels_end_to_end(scenario):
    ch = sample_rf_channel(scenario.rf_ap, scenario.devices,
                           scenario.rician_factor_db,
                           scenario.path_loss_exponent, seed=scenario.seed)
    targets = build_eh_targets(np.full(5, 2e-3), scenario.rf_nonlinear)
    sol = solve_aggregate_sdp(ch.outer_products(), targets)
    assert sol.gap_relative <= 1e-7
    beams = extract_beams(sol, ch.outer_products())
    report = verify_beamforming(beams, ch.outer_products(), targets)
    assert report.ok
    assert len(beams.beams) == 1


def test_rank_two_optimum_keeps_both_beams(scenario):
    # the face step must not truncate a rank-two optimum (lambda_2/lambda_1 ~ 0.38)
    ch = sample_rf_channel(scenario.rf_ap, scenario.devices,
                           scenario.rician_factor_db,
                           scenario.path_loss_exponent, seed=20260828)
    targets = build_eh_targets(np.full(5, 2e-3), scenario.rf_nonlinear)
    sol = solve_aggregate_sdp(ch.outer_products(), targets)
    beams = extract_beams(sol, ch.outer_products())
    assert len(beams.beams) == 2
    assert beams.total_power == pytest.approx(sol.objective, rel=1e-10)


def test_infeasible_zero_channel():
    channels = [np.zeros((3, 3), dtype=complex)]
    with pytest.raises(InfeasibleError):
        solve_aggregate_sdp(channels, np.array([1e-3]))


def test_dimension_checks():
    rng = np.random.default_rng(2)
    channels, _ = _random_channels(rng, 2, 3)
    with pytest.raises(DimensionMismatchError):
        solve_aggregate_sdp(channels, np.array([1e-3]))
    with pytest.raises(DimensionMismatchError):
        solve_aggregate_sdp([], np.array([]))
    mixed = [channels[0], np.eye(4, dtype=complex)]
    with pytest.raises(DimensionMismatchError):
        solve_aggregate_sdp(mixed, np.array([1e-3, 1e-3]))
    full_rank = [channels[0], np.eye(3, dtype=complex)]
    with pytest.raises(ValueError, match="rank one"):
        solve_aggregate_sdp(full_rank, np.array([1e-3, 1e-3]))


def test_unreachable_tolerance_stalls():
    rng = np.random.default_rng(13)
    channels, _ = _random_channels(rng, 3, 4)
    b = rng.uniform(1e-3, 4e-3, 3)
    with pytest.raises(SolverStallError, match="certified gap"):
        solve_aggregate_sdp(channels, b, tol=1e-30)


def test_linear_baseline_scales_targets():
    from attocell.energy import LinearEhParams
    rng = np.random.default_rng(17)
    channels, _ = _random_channels(rng, 3, 4)
    rf = rng.uniform(1e-3, 3e-3, 3)
    lin = LinearEhParams(efficiency=0.5)
    p = required_power_linear(channels, rf, lin)
    direct = solve_aggregate_sdp(channels, rf / 0.5)
    assert p == pytest.approx(direct.objective, rel=1e-9)


def _rng717_sets(count, n_ant=6, n_dev=5):
    # 6-antenna, 5-device draws of the c07 family's generator, one shared target
    rng = np.random.default_rng(717)
    sets = [_random_channels(rng, n_dev, n_ant)[0] for _ in range(count)]
    return sets, rng.uniform(0.5e-3, 8e-3, n_dev)


def _assert_matches_single(batch, sets, b):
    for k, (agg, channels) in enumerate(zip(batch, sets)):
        single = solve_aggregate_sdp(channels, b)
        assert isinstance(agg, PsdMatrix), f"instance {k}: {agg}"
        assert agg.gap_relative <= 1e-7
        assert abs(agg.objective - single.objective) <= agg.gap + single.gap, f"instance {k}"


def test_batch_matches_single_solves_rng717():
    sets, b = _rng717_sets(12)
    _assert_matches_single(solve_aggregate_sdp_batch(sets, b), sets, b)


def test_batch_matches_single_solves_across_channel_scales():
    rng = np.random.default_rng(3)
    _, vecs = _random_channels(rng, 4, 5)
    b = rng.uniform(1e-3, 5e-3, 4)
    scales = [1.0, 1e-8, 1e-4, 1e-3, 1e3, 1e8]
    sets = [[np.outer(c * v, (c * v).conj()) for v in vecs] for c in scales]
    batch = solve_aggregate_sdp_batch(sets, b)
    _assert_matches_single(batch, sets, b)
    for c, agg in zip(scales, batch):
        assert abs(agg.objective * c**2 - batch[0].objective) <= (agg.gap * c**2
                                                                 + batch[0].gap)


def test_batch_of_one_equals_single_solve():
    sets, b = _rng717_sets(1)
    (agg,) = solve_aggregate_sdp_batch(sets, b)
    single = solve_aggregate_sdp(sets[0], b)
    np.testing.assert_array_equal(agg.entries, single.entries)
    np.testing.assert_array_equal(agg.duals, single.duals)
    assert (agg.objective, agg.gap, agg.iterations) == (
        single.objective, single.gap, single.iterations)


def test_batch_breakdown_fails_its_instance_alone():
    sets, b = _rng717_sets(4)
    sets[2] = [g.copy() for g in sets[2]]
    sets[2][1][0, 0] = np.nan  # its eigensolve cannot converge
    batch = solve_aggregate_sdp_batch(sets, b)
    assert isinstance(batch[2], SolverStallError)
    assert "numerical breakdown" in str(batch[2])
    for k in (0, 1, 3):
        assert batch[k].gap_relative <= 1e-7
    with pytest.raises(SolverStallError, match="numerical breakdown"):
        solve_aggregate_sdp(sets[2], b)


def test_batch_late_breakdown_fails_its_instance_alone(monkeypatch):
    # instance 1 has one device 1e-8 weaker than the rest, so its normalized
    # W has a trace far above the others'; the injected Cholesky failure hits
    # that W once it leaves the diagonal starting point
    sets, b = _rng717_sets(3)
    vecs = [np.linalg.eigh(g)[1][:, -1] * np.sqrt(np.trace(g).real) for g in sets[1]]
    vecs[0] = vecs[0] * 1e-4
    sets[1] = [np.outer(v, v.conj()) for v in vecs]
    cholesky = np.linalg.cholesky

    def flaky(a):
        diag = np.einsum("...ii->...i", a)[..., None] * np.eye(a.shape[-1])
        off_diagonal = np.abs(a - diag).max(axis=(-2, -1)) > 0.0
        if np.any(off_diagonal & (diag.real.sum(axis=(-2, -1)) > 1e6)):
            raise np.linalg.LinAlgError("injected breakdown")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", flaky)
    batch = solve_aggregate_sdp_batch(sets, b)
    assert isinstance(batch[1], SolverStallError)
    assert "certified gap" in str(batch[1])
    for k in (0, 2):
        assert batch[k].gap_relative <= 1e-7


def _corrupt_instance(monkeypatch, index):
    # the core hands back a non-Hermitian W for one instance of every stack
    core = beamforming._primal_dual

    def corrupted(h, b, tol):
        out = core(h, b, tol)
        w = out[index][0].copy()
        w[0, 1] += 1.0
        out[index] = (w, *out[index][1:])
        return out

    monkeypatch.setattr(beamforming, "_primal_dual", corrupted)


def test_rejected_solver_output_is_a_stall(monkeypatch):
    sets, b = _rng717_sets(3)
    _corrupt_instance(monkeypatch, 1)
    batch = solve_aggregate_sdp_batch(sets, b)
    assert isinstance(batch[1], SolverStallError)
    assert "not Hermitian" in str(batch[1])
    assert all(isinstance(batch[k], PsdMatrix) for k in (0, 2))
    monkeypatch.undo()
    _corrupt_instance(monkeypatch, 0)
    with pytest.raises(SolverStallError, match="not Hermitian"):
        solve_aggregate_sdp(sets[0], b)


def test_batch_validates_like_single_solve():
    sets, b = _rng717_sets(2)
    assert solve_aggregate_sdp_batch([], b) == []
    zero = [sets[0], [np.zeros((6, 6), dtype=complex)] + sets[1][1:]]
    with pytest.raises(InfeasibleError, match="device 0"):
        solve_aggregate_sdp_batch(zero, b)
    with pytest.raises(DimensionMismatchError):
        solve_aggregate_sdp_batch([sets[0], sets[1][:4]], b)
    with pytest.raises(DimensionMismatchError):
        solve_aggregate_sdp_batch([sets[0], [g[:5, :5] for g in sets[1]]], b)
    idle = solve_aggregate_sdp_batch(sets, np.zeros(5))
    assert [agg.objective for agg in idle] == [0.0, 0.0]


def test_batch_takes_one_target_row_per_set():
    # a shared-target block, rows with one zero target, a row of another
    # scale and an all-zero row, in one call
    sets, b = _rng717_sets(7)
    gap_b = b.copy()
    gap_b[2] = 0.0
    rows = np.array([b, b, b, gap_b, 1e3 * gap_b[::-1], np.zeros(5), 1e-6 * b])
    batch = solve_aggregate_sdp_batch(sets, rows)
    for k, (agg, channels, row) in enumerate(zip(batch, sets, rows)):
        single = solve_aggregate_sdp(channels, row)
        assert (agg.objective, agg.iterations) == (single.objective, single.iterations), k
        np.testing.assert_array_equal(agg.entries, single.entries)
        np.testing.assert_array_equal(agg.duals, single.duals)
    assert batch[5].objective == 0.0 and batch[5].iterations == 0
    assert batch[3].duals[2] == 0.0

    with pytest.raises(DimensionMismatchError, match="one target row per channel set"):
        solve_aggregate_sdp_batch(sets, rows[:6])
    zero = [sets[0], [g if j != 3 else np.zeros((6, 6), dtype=complex)
                      for j, g in enumerate(sets[1])]]
    with pytest.raises(InfeasibleError, match="device 3"):
        solve_aggregate_sdp_batch(zero, np.array([b, b]))
    # under a zero target the zero channel drops out of its instance
    cleared = b.copy()
    cleared[3] = 0.0
    assert all(isinstance(agg, PsdMatrix) for agg in
               solve_aggregate_sdp_batch(zero, np.array([b, cleared])))

    broken = [sets[0], [g.copy() for g in sets[1]], sets[2], sets[3]]
    broken[1][1][0, 0] = np.nan  # its eigensolve cannot converge
    batch = solve_aggregate_sdp_batch(broken, np.array([b, b, gap_b, gap_b]))
    assert isinstance(batch[1], SolverStallError)
    assert "numerical breakdown" in str(batch[1])
    assert all(isinstance(batch[k], PsdMatrix) for k in (0, 2, 3))
