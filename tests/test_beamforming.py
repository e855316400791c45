import numpy as np
import pytest

from attocell.beamforming import (BeamformingSolution, EhTargets, PsdMatrix,
                                  build_eh_targets, extract_beams,
                                  required_power_linear, solve_aggregate_sdp,
                                  verify_beamforming)
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
