"""Finite-difference verification harness, plus a check of the checker.

The negative control corrupts one gradient on purpose and demands the
harness notices; without it a silently broken comparison would pass
everything forever.
"""

import dataclasses

import numpy as np
import pytest

import pigat.gradcheck as gradcheck
from pigat.config import TrainConfig
from pigat.errors import NumericError, UsageError
from pigat.features import SIDES, USER
from pigat.gradcheck import GradCheckReport, _toy_batch, build_case, relative_error, run_case, toy_config, toy_schema
from pigat.nn import FfnCache


def case(confidence: str, attention: str, **overrides) -> TrainConfig:
    return TrainConfig(confidence=confidence, attention=attention, **overrides)


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(0.25, 0.25) == 0.0

    def test_normalizes_by_larger_magnitude(self):
        assert abs(relative_error(2.0, 1.0) - 0.5) < 1e-15

    def test_sub_noise_floor_magnitudes_count_as_agreement(self):
        # A central difference of an O(1) loss cannot resolve 1e-8
        # against 2e-8; treating them as distinct would only measure
        # float64 rounding noise.
        assert relative_error(1e-8, 2e-8) == 0.0
        assert relative_error(1e-2, 2e-2) > 0.0


class TestCaseConstruction:
    def test_same_seed_same_case(self):
        config = toy_config(case("ce", "ffn-1"))
        p1, b1 = build_case(config, seed=5)
        p2, b2 = build_case(config, seed=5)
        assert np.array_equal(p1.tables["user"].weight, p2.tables["user"].weight)
        assert np.array_equal(b1.nbrs[USER], b2.nbrs[USER])
        assert np.array_equal(b1.labels, b2.labels)

    def test_toy_config_shrinks_only_the_sizes(self):
        config = TrainConfig(hidden_width=8, dropout=0.3, pooling="average", include_negative_neighbors=False)
        toy = toy_config(config)
        assert (toy.max_neighbors, toy.user_embed_width, toy.item_embed_width, toy.dropout) == (4, 8, 8, 0.0)
        sizes = ("max_neighbors", "user_embed_width", "item_embed_width", "dropout")
        assert dataclasses.replace(toy, **{name: getattr(config, name) for name in sizes}) == config

    def test_toy_windows_follow_the_neighbor_filter(self):
        every = toy_config(TrainConfig())
        positives = toy_config(TrainConfig(include_negative_neighbors=False))
        schema = toy_schema(every)
        a = _toy_batch(schema, every, np.random.default_rng(0))
        b = _toy_batch(schema, positives, np.random.default_rng(0))
        assert np.array_equal(a.labels, b.labels)
        assert sum(b.mask[side].sum() for side in SIDES) < sum(a.mask[side].sum() for side in SIDES)

    def test_accepted_points_sit_away_from_kinks(self):
        from pigat.model import forward

        config = toy_config(case("rce", "ffn-3"))
        params, batch = build_case(config, seed=2)
        state = forward(params, batch, mode="train")
        assert gradcheck.leaky_margin(params, state) > gradcheck.SMOOTH_MARGIN
        assert state.clamp_active.all()

    @pytest.mark.parametrize("attention", ["ffn-3", "dot"])
    def test_leaky_margin_is_min_over_every_leaky_pre_activation(self, attention, monkeypatch):
        from pigat.model import INTEGRATE, backward, forward

        params, batch = build_case(toy_config(case("ce", attention)), seed=4)
        state = forward(params, batch, mode="train")
        # Every leaky pre-activation, the plain way, from the layer inputs the state keeps.
        pre_acts = []
        for name, _, _ in INTEGRATE:
            (w, b), (x, sign) = params.integrate[name], state.int_states[name]
            pre_acts.append(x @ w.T + b)
            assert np.array_equal(pre_acts[-1] >= 0.0, sign)  # the sign the forward kept
        ffns = [(params.mlp, state.mlp_cache)]
        ffns += [(params.heads[name].ffn, cache) for name, cache in state.caches.items() if isinstance(cache, FfnCache)]
        for ffn, cache in ffns:
            for w, b, x, sign in zip(ffn.weights, ffn.biases, cache.inputs, cache.signs):
                if isinstance(x, tuple):
                    query, keys = x
                    qw = query.shape[1]
                    pre_acts.append(keys @ w[:, qw:].T + (query @ w[:, :qw].T + b)[:, None, :])
                else:
                    pre_acts.append(x @ w.T + b)
                assert np.array_equal(pre_acts[-1] >= 0.0, sign)
        assert len(pre_acts) == 6 + (8 if attention == "ffn-3" else 0)
        expected = min(float(np.abs(pre).min()) for pre in pre_acts)
        assert gradcheck.leaky_margin(params, state) == expected
        consumed = forward(params, batch, mode="train")
        backward(params, consumed)  # which writes gradients into its cached inputs
        for unfit in (forward(params, batch, mode="eval"), consumed):
            with pytest.raises(UsageError, match="unconsumed train state"):
                gradcheck.leaky_margin(params, unfit)
        # Every leaky layer counts: a value at the kink in any one of them sets the margin.
        kernels = {name: getattr(gradcheck, name) for name in ("affine_forward", "_pair_affine_forward")}
        for target in range(len(pre_acts)):
            shapes = []

            def nudged(kernel):
                def run(*args):
                    pre = kernel(*args)
                    if len(shapes) == target:
                        pre.flat[0] = -1e-12 * (target + 1)
                    shapes.append(pre.shape)
                    return pre

                return run

            with monkeypatch.context() as patched:
                for name, kernel in kernels.items():
                    patched.setattr(gradcheck, name, nudged(kernel))
                assert gradcheck.leaky_margin(params, state) == 1e-12 * (target + 1)
            assert sorted(shapes) == sorted(pre.shape for pre in pre_acts)
        # The linear output layers do not: zeroed, they would sit on the kink.
        for ffn, _ in ffns:
            ffn.weights[-1][...] = 0.0
            ffn.biases[-1][...] = 0.0
        assert gradcheck.leaky_margin(params, state) == expected

    def test_impossible_margin_raises(self):
        config = toy_config(case("none", "dot"))
        old = gradcheck.SMOOTH_MARGIN
        gradcheck.SMOOTH_MARGIN = 1e9
        try:
            with pytest.raises(NumericError, match="smooth"):
                build_case(config, seed=0, max_tries=3)
        finally:
            gradcheck.SMOOTH_MARGIN = old


class TestGradientAgreement:
    @pytest.mark.parametrize(
        "confidence,attention",
        [
            ("ce", "ffn-3"),
            ("none", "dot"),
            ("rce", "scaled-dot"),
            ("pe", "ffn-1"),
            ("fce", "ffn-2"),
        ],
    )
    def test_analytic_matches_differences(self, confidence, attention):
        report = run_case(case(confidence, attention), seed=0)
        assert report.max_rel_err < 1e-4, report.per_group

    def test_small_matrix_stays_tight(self):
        worst = max(
            run_case(case(confidence, attention), seed).max_rel_err
            for confidence in ("none", "ce")
            for attention in ("dot", "ffn-1")
            for seed in range(2)
        )
        assert worst < 1e-4

    @pytest.mark.parametrize(
        "attention,overrides",
        [
            ("dot", dict(user_query_only=True)),
            ("ffn-2", dict(pooling="average")),
            ("ffn-2", dict(confidence_in_pooling=False)),
            ("ffn-3", dict(user_query_only=True, confidence_in_pooling=False)),
            # Item windows are narrower than the user profile, so the
            # item-side heads project the query.
            ("scaled-dot", dict(user_query_only=True)),
        ],
        ids=[
            "user-query-only-dot",
            "average-pooling",
            "confidence-outside-pooling",
            "user-query-only-ffn3-outside-pooling",
            "user-query-only-scaled-dot",
        ],
    )
    def test_rewired_model_still_agrees(self, attention, overrides):
        report = run_case(case("ce", attention, **overrides), seed=1)
        assert report.max_rel_err < 1e-4, report.per_group
        if overrides.get("pooling") == "average":
            assert not any(name.startswith("att_") for name in report.per_group)
        if attention == "scaled-dot":
            assert {"att_ii.proj_w", "att_ia.proj_w"} <= set(report.per_group)

    def test_full_coordinate_sweep_on_smallest_head(self, monkeypatch):
        from pigat.model import named_parameters

        cases, compared = [], {}  # compared: id of a parameter array -> coordinates
        real_build, real_fd = gradcheck.build_case, gradcheck.fd_coordinate

        def recording_build(*args):
            cases.append(real_build(*args))
            return cases[-1]

        def recording_fd(f, x, i, h):
            compared.setdefault(id(x), set()).add(int(i))
            return real_fd(f, x, i, h)

        monkeypatch.setattr(gradcheck, "build_case", recording_build)
        monkeypatch.setattr(gradcheck, "fd_coordinate", recording_fd)
        report = run_case(case("none", "dot"), seed=3, samples_per_array=None)
        assert report.max_rel_err < 1e-4
        # every coordinate of every parameter was compared
        ((params, _),) = cases
        named = named_parameters(params)
        assert set(report.per_group) == set(named)
        for name, arr in named.items():
            assert compared[id(arr)] == set(range(arr.size)), name


class TestNegativeControl:
    def test_corrupted_gradient_is_flagged(self, monkeypatch):
        from pigat.model import backward as real_backward

        def corrupted(params, state):
            real_backward(params, state)
            params.grads["mlp.b2"] += 0.01

        monkeypatch.setattr(gradcheck, "backward", corrupted)
        report = run_case(case("ce", "ffn-1"), seed=0)
        assert report.max_rel_err > 1e-4
        assert report.per_group["mlp.b2"] > 1e-4


class TestReport:
    def test_worst_group_wins(self):
        report = GradCheckReport({"a": 1e-6, "b": 3e-5})
        assert report.max_rel_err == 3e-5

    def test_empty_report_is_clean(self):
        assert GradCheckReport({}).max_rel_err == 0.0
