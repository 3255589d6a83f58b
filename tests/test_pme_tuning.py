"""Tests for PME parameter selection (the Table III procedure)."""

import functools
import time

import numpy as np
import pytest

from repro import (Box, PMEOperator, PMEParams, make_suspension,
                   pme_relative_error, tune_parameters)
from repro.errors import ConfigurationError
from repro.perfmodel import (PMECostModel, SUBSTRATE,
                             SUBSTRATE_COST_TOLERANCE, WESTMERE_EP)
from repro.pme import accuracy
from repro.pme.tuning import (
    candidate_cutoffs,
    estimate_errors,
    fft_friendly_size,
    rank_candidates,
    real_space_error,
    reciprocal_error,
)
from repro.rpy.ewald import EwaldSummation


class TestFFTFriendly:
    def test_five_smooth(self):
        for m in (7, 13, 33, 100, 121):
            k = fft_friendly_size(m)
            assert k >= m
            assert k % 2 == 0
            reduced = k
            for f in (2, 3, 5):
                while reduced % f == 0:
                    reduced //= f
            assert reduced == 1

    def test_already_friendly(self):
        assert fft_friendly_size(64) == 64
        assert fft_friendly_size(90) == 90


def _spline_error(p, xih, xia, n=400, phi=0.2):
    """Aliasing estimate at mesh resolution ``xi h`` for ``xi a``."""
    box = Box.for_volume_fraction(n, phi)
    return float(reciprocal_error(xia, box.length * xia / xih, p, n, box)[0])


class TestSplineCalibration:
    """The reciprocal-error estimate (computed from the spline's
    aliasing sums since the split retune; the ids are those of the
    measured ``T_p(xi h) (xi a / 2)^3`` table it replaced)."""

    def test_monotone_in_resolution(self):
        errs = [_spline_error(6, xih, 2.0) for xih in (0.1, 0.2, 0.4, 0.8)]
        assert errs == sorted(errs)

    def test_higher_order_more_accurate(self):
        assert _spline_error(8, 0.3, 2.0) < _spline_error(6, 0.3, 2.0) < \
            _spline_error(4, 0.3, 2.0)

    def test_xia_cubed_scaling(self):
        # the table's (xi a)^3 collapse held near xi a = 2 only, and was
        # 6x optimistic at the xi a ~ 0.4-0.7 tuned splits live at.  At
        # fixed xi h the coherent own-coefficient error grows like
        # (xi a)^3 only where the a^3 k^2 term of m_alpha dominates ...
        high = _spline_error(6, 0.3, 2.0) / _spline_error(6, 0.3, 1.0)
        assert high == pytest.approx(8.0, rel=0.25)
        # ... and not at all below xi a ~ 0.5, where m_alpha's factor
        # (a - a^3 k^2 / 3) changes sign inside the aliased band: the
        # estimate *falls* from xi a = 0.2 to 0.4
        assert _spline_error(6, 0.3, 0.4) < _spline_error(6, 0.3, 0.2)

    def test_bound_inverts_estimate(self):
        # the mesh of every candidate is the smallest friendly size
        # whose reciprocal estimate meets the budget
        n = 1000
        box = Box.for_volume_fraction(n, 0.2)
        for target in (1e-2, 1e-4, 1e-6):
            budget = target / 2.5
            for c in rank_candidates(n, box, target_ep=target):
                est = c.errors
                assert np.hypot(est["spline"],
                                est["recip_truncation"]) <= budget
                smaller = fft_friendly_size(c.params.K // 2)
                while fft_friendly_size(smaller + 1) < c.params.K:
                    smaller = fft_friendly_size(smaller + 1)
                if smaller < 8:
                    continue
                alias, trunc = reciprocal_error(c.params.xi, smaller, 6, n,
                                                box)
                assert np.hypot(alias, trunc) > budget
                assert est["real"] == pytest.approx(budget, rel=1e-6)

    def test_uncalibrated_order_rejected(self):
        box = Box.for_volume_fraction(100, 0.2)
        with pytest.raises(ConfigurationError):
            reciprocal_error(0.5, 32, 3, 100, box)
        with pytest.raises(ConfigurationError):
            tune_parameters(100, box, p=3)


@functools.lru_cache(maxsize=None)
def _system(n, phi, seed):
    """A suspension and its dense Ewald mobility (the reference)."""
    susp = make_suspension(n, phi, seed=seed)
    matrix = EwaldSummation(box=susp.box, tol=1e-10).matrix(susp.positions)
    return susp, matrix


class TestErrorEstimates:
    """The two error components against dense Ewald, apart."""

    @pytest.mark.parametrize("n,phi", [(100, 0.1), (200, 0.2)])
    def test_components_within_a_factor_1_6(self, n, phi):
        susp, matrix = _system(n, phi, 0)
        box, r = susp.box, susp.positions
        rng = np.random.default_rng(5)
        f = rng.standard_normal((3 * n, 3))
        f /= np.linalg.norm(f, axis=0)
        u = matrix @ f
        for xi in (0.35, 0.5, 0.7):
            exact = EwaldSummation(box=box, xi=xi, tol=1e-12)
            recip = exact._reciprocal_matrix(box.wrap(r)) @ f
            for K, p in ((16, 4), (20, 6), (30, 6), (24, 8)):
                op = PMEOperator(r, box, PMEParams(xi=xi, r_max=2.5, K=K,
                                                   p=p))
                measured = np.max(np.linalg.norm(
                    op.apply_reciprocal(f) - recip, axis=0)
                    / np.linalg.norm(u, axis=0))
                if not 1e-6 < measured < 0.05:
                    continue
                estimate = np.hypot(*reciprocal_error(xi, K, p, n, box))
                assert 1 / 1.6 < measured / estimate < 1.6, (xi, K, p)
            for r_max in (4.0, 5.5, box.length / 2):
                op = PMEOperator(r, box, PMEParams(xi=xi, r_max=r_max,
                                                   K=16, p=4))
                measured = np.max(np.linalg.norm(
                    op.apply_real(f) - (u - recip), axis=0)
                    / np.linalg.norm(u, axis=0))
                if not 1e-6 < measured < 0.05:
                    continue
                estimate = float(real_space_error(xi, r_max, n, box))
                assert 1 / 1.6 < measured / estimate < 1.6, (xi, r_max)


class TestTuner:
    @pytest.mark.parametrize("n,target", [(40, 1e-3), (80, 1e-2)])
    def test_meets_target(self, n, target):
        box = Box.for_volume_fraction(n, 0.2)
        params = tune_parameters(n, box, target_ep=target)
        rng = np.random.default_rng(n)
        r = rng.uniform(0, box.length, size=(n, 3))
        op = PMEOperator(r, box, params)
        assert pme_relative_error(op, n_probe=2) < target

    @pytest.mark.parametrize("target", [1e-2, 1e-3])
    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("phi", [0.1, 0.2, 0.4])
    @pytest.mark.parametrize("n", [45, 100, 200, 400])
    def test_contract_at_small_n(self, n, phi, seed, p, target):
        # the measured error meets the target *and* does not over-pay it
        # (the parent missed it at n=100 and n=200, Phi=0.2: 1.36e-3 and
        # 1.20e-3, and over-paid 15-23x at n >= 1000)
        susp, matrix = _system(n, phi, seed)
        params = tune_parameters(n, susp.box, target_ep=target, p=p)
        op = PMEOperator(susp.positions, susp.box, params)
        e_p = pme_relative_error(op, n_probe=3,
                                 reference=lambda f: matrix @ f)
        assert 0.2 * target <= e_p <= target
        estimate = estimate_errors(params, susp.box, n)["total"]
        assert 1 / 3 < e_p / estimate < 3

    def test_tighter_target_bigger_mesh(self):
        box = Box.for_volume_fraction(100, 0.2)
        loose = tune_parameters(100, box, target_ep=1e-2)
        tight = tune_parameters(100, box, target_ep=1e-5)
        assert tight.K > loose.K

    def test_rmax_within_half_box(self):
        box = Box.for_volume_fraction(30, 0.3)
        params = tune_parameters(30, box)
        assert params.r_max <= box.length / 2

    def test_estimates_within_budget(self):
        box = Box.for_volume_fraction(200, 0.2)
        target = 1e-3
        params = tune_parameters(200, box, target_ep=target)
        est = estimate_errors(params, box, n=200)
        assert est["real"] <= target
        assert est["recip_truncation"] <= target
        assert est["spline"] <= target
        assert est["total"] <= target

    def test_invalid_target(self):
        box = Box(10.0)
        with pytest.raises(ConfigurationError):
            tune_parameters(10, box, target_ep=0.0)

    def test_spline_order_respected(self):
        box = Box.for_volume_fraction(100, 0.2)
        p4 = tune_parameters(100, box, p=4)
        p6 = tune_parameters(100, box, p=6)
        assert p4.p == 4 and p6.p == 6
        # lower order needs a finer mesh at the same target
        assert p4.K >= p6.K

    def test_mesh_scales_with_system(self):
        # at one cutoff (the free choice trades mesh for cutoff)
        small = tune_parameters(100, Box.for_volume_fraction(100, 0.2),
                                r_max_candidates=[6.0])
        large = tune_parameters(800, Box.for_volume_fraction(800, 0.2),
                                r_max_candidates=[6.0])
        assert large.K > small.K

    def test_kernel_and_interpolation_forwarded(self):
        box = Box.for_volume_fraction(50, 0.2)
        params = tune_parameters(50, box, kernel="oseen",
                                 interpolation="lagrange")
        assert params.kernel == "oseen"
        assert params.interpolation == "lagrange"

    def test_tuned_oseen_meets_target(self):
        n, target = 40, 1e-3
        box = Box.for_volume_fraction(n, 0.2)
        params = tune_parameters(n, box, target_ep=target, kernel="oseen")
        rng = np.random.default_rng(n)
        r = rng.uniform(0, box.length, size=(n, 3))
        op = PMEOperator(r, box, params)
        ref = EwaldSummation(box=box, tol=1e-12, kernel="oseen").matrix(r)
        assert pme_relative_error(op, n_probe=2,
                                  reference=lambda f: ref @ f) < target


class TestRanking:
    """What the ranking sees and what it may depend on."""

    @pytest.mark.parametrize("n", [200, 1000, 4000, 16_000, 100_000])
    def test_optimum_is_interior(self, n):
        # for twenty PRs the tuner returned the largest of six
        # hand-written cutoffs at every n: the minimum was never inside
        # the list
        box = Box.for_volume_fraction(n, 0.2)
        rows = rank_candidates(n, box)
        cutoffs = [c.params.r_max for c in rows]
        assert cutoffs == sorted(candidate_cutoffs(box))
        assert cutoffs[-1] == box.length / 2
        chosen = next(c for c in rows if c.chosen)
        assert chosen.params == tune_parameters(n, box)
        assert chosen.params.r_max not in (cutoffs[0], cutoffs[-1])
        # a larger cutoff never needs a finer mesh
        meshes = [c.params.K for c in rows]
        assert meshes == sorted(meshes, reverse=True)
        # the smallest cutoff the model cannot tell from the cheapest
        cheapest = min(c.cost["total"] for c in rows)
        limit = cheapest * (1 + SUBSTRATE_COST_TOLERANCE)
        assert chosen.cost["total"] <= limit
        assert all(c.cost["total"] > limit for c in rows
                   if c.params.r_max < chosen.params.r_max)
        assert sum(c.cheapest for c in rows) == 1

    def test_default_splits_on_the_committed_substrate(self):
        # every default trajectory digest hangs on these; they move only
        # when a SUBSTRATE rate is re-recorded.  pair_build_us 0.40 ->
        # 0.20 (the rebuild in compiled passes) moved n = 4000 from
        # (8.47, 40): a cheaper build buys a larger cutoff
        splits = {100: (6.02, 24), 200: (7.31, 20), 1000: (8.89, 24),
                  2000: (8.47, 32), 4000: (8.89, 36)}
        for n, (r_max, K) in splits.items():
            params = tune_parameters(n, Box.for_volume_fraction(n, 0.2))
            assert (round(params.r_max, 2), params.K) == (r_max, K)

    def test_small_box_may_choose_the_cap(self):
        box = Box.for_volume_fraction(45, 0.2)
        assert tune_parameters(45, box).r_max <= box.length / 2

    def test_pinned_cutoff_and_other_models(self):
        box = Box.for_volume_fraction(2000, 0.2)
        pinned = tune_parameters(2000, box, r_max_candidates=[10.0])
        assert pinned.r_max == 10.0
        # the model prices the candidates, it does not make them: the
        # paper's machine sees the same splits, all of them cheaper
        ours = rank_candidates(2000, box)
        paper = rank_candidates(2000, box, model=PMECostModel(WESTMERE_EP))
        assert [c.params for c in paper] == [c.params for c in ours]
        assert all(w.cost["total"] < s.cost["total"]
                   for w, s in zip(paper, ours))

    def test_pure_function_of_its_arguments(self, monkeypatch):
        # campaign digests at 1 vs N workers, serial vs threads and
        # served vs direct applies all rest on this
        import os

        import repro.perfmodel.machines as machines
        from repro.utils import timing

        box = Box.for_volume_fraction(1000, 0.2)
        expected = tune_parameters(1000, box)

        def no_clock(*args, **kwargs):
            raise AssertionError("the tuner read a clock")

        class NoHost:
            def __getattr__(self, name):
                raise AssertionError("the tuner read perfmodel.HOST")

        for cpus in (1, 64):
            with monkeypatch.context() as patch:
                patch.setattr(os, "cpu_count", lambda: cpus)
                patch.setattr(os, "sched_getaffinity",
                              lambda pid: set(range(cpus)), raising=False)
                patch.setenv("REPRO_BACKEND", "threads")
                patch.setenv("REPRO_EXEC_WORKERS", str(cpus))
                patch.setattr(time, "perf_counter", no_clock)
                patch.setattr(timing.Timer, "start", no_clock)
                patch.setattr(machines, "HOST", NoHost())
                assert tune_parameters(1000, box) == expected
        assert (SUBSTRATE.cores, SUBSTRATE.threads) == (1, 1)

    def test_cost_of_tuning(self, monkeypatch):
        # runs once per Simulation, per ensemble task and per served
        # system (the parent: 1 968 one-element kernel calls, 52 ms at
        # any n).  Now a dozen evaluations of each error kernel, every
        # one over the whole cutoff grid at once, whatever n; the wall
        # time is the suite's `pme.tune_ms`.
        from repro.pme import tuning
        from repro.rpy import beenakker

        shapes = {"real": [], "recip": []}
        coefficients = beenakker.real_space_coefficients
        reciprocal = tuning.reciprocal_error

        def counted_coefficients(r, *args, **kwargs):
            shapes["real"].append(np.shape(r))
            return coefficients(r, *args, **kwargs)

        def counted_reciprocal(xi, *args, **kwargs):
            shapes["recip"].append(np.shape(xi))
            return reciprocal(xi, *args, **kwargs)

        monkeypatch.setattr(beenakker, "real_space_coefficients",
                            counted_coefficients)
        monkeypatch.setattr(tuning, "reciprocal_error", counted_reciprocal)
        for n in (100, 100_000):
            box = Box.for_volume_fraction(n, 0.2)
            for calls in shapes.values():
                calls.clear()
            tune_parameters(n, box)
            grid = len(candidate_cutoffs(box))
            assert len(shapes["real"]) <= 12
            assert len(shapes["recip"]) <= 12
            assert all(shape[0] == grid for shape in shapes["real"])
            assert all(shape == (grid,) for shape in shapes["recip"])


class TestReference:
    def test_large_n_reference_sees_real_space_truncation(self, monkeypatch):
        # an operator whose real-space sum is cut short at 0.95 L/2: the
        # parent's large-n reference kept the operator's xi and took
        # min(1.5 r_max, L/2), i.e. nearly the same truncated sum, and
        # under-reported exactly this error
        n = 300
        susp = make_suspension(n, 0.2, seed=3)
        box = susp.box
        r_max = 0.95 * box.length / 2
        params = PMEParams(xi=2.4 / r_max, r_max=r_max, K=32, p=6)
        assert estimate_errors(params, box, n)["real"] > 2e-3
        op = PMEOperator(susp.positions, box, params)
        monkeypatch.setattr(accuracy, "DENSE_REFERENCE_LIMIT", n)
        dense = pme_relative_error(op, n_probe=2)
        monkeypatch.setattr(accuracy, "DENSE_REFERENCE_LIMIT", n - 1)
        large = pme_relative_error(op, n_probe=2)
        assert dense > 1e-3
        assert large == pytest.approx(dense, rel=0.02)

    @pytest.mark.parametrize("p", [5, 10])
    def test_large_n_reference_at_an_unvalidated_order(self, p, monkeypatch):
        # PMEParams takes any p >= 2, the reciprocal estimate covers
        # 4, 6, 8: measuring an operator must not need its estimate
        n = 120
        susp = make_suspension(n, 0.2, seed=3)
        params = PMEParams(xi=0.5, r_max=susp.box.length / 2, K=30, p=p)
        with pytest.raises(ConfigurationError):
            estimate_errors(params, susp.box, n)
        op = PMEOperator(susp.positions, susp.box, params)
        dense = pme_relative_error(op, n_probe=2)
        monkeypatch.setattr(accuracy, "DENSE_REFERENCE_LIMIT", n - 1)
        large = pme_relative_error(op, n_probe=2)
        assert large == pytest.approx(dense, rel=0.02)
