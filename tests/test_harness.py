import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import re
import sys
import traceback
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tailbounds
from tailbounds.bounds import MAX_CURVE_ORDER, MAX_MAIN_CURVE_TERMS, \
    MAX_RECURSION_MATRIX_BYTES, MomentProfile, TypicalProfile
from tailbounds import bounds, graphs, packing, pointproc
from tailbounds.errors import ConfigError, HypothesisViolationError, InvalidArgumentError, \
    SizeLimitError
from tailbounds.harness import cli, config, experiments, runner
from tailbounds.harness.config import MAX_CHERNOFF_N, MAX_CHROMATIC_N, MAX_EXPECTED_POINTS, \
    MAX_JL_GATE_ENTRIES, MAX_SEQUENCE_N, parse_config
from tailbounds.harness.rng import derived_seed, derived_seeds, restream, substream
from tailbounds.harness.runner import (
    ConcentrationSummary,
    ExperimentRecord,
    Records,
    bound_source,
    compare_bound,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_replicates,
    scaling_study,
    summarize,
    _run_block,
)
from tailbounds.packing import enumerate_bin_types, lower_bound_distribution, solve_packing_lp
from tailbounds.pointproc import Poisson, TruncatedZeta, TwoPoint
from tailbounds.seq import GaussianIid, RadialBetaMixture, SphereUniform, _draw_vectors

from conftest import (run_binpack, run_chernoff, run_gauss_sum, run_lis, run_python,
                      substream_oracle)


def records_of(fs):
    """Records of experiment "x" with these f values, each replicate's seed
    its index."""
    fs = np.array(fs, dtype=np.float64)
    return Records("x", "h", range(len(fs)), range(len(fs)), fs, {})


def make_config(**overrides):
    raw = {
        "schema_version": 1,
        "experiment": "lis",
        "replicates": 40,
        "base_seed": 1234,
        "parameters": {"n": 60},
    }
    raw.update(overrides)
    return parse_config(raw)


# Every kind of draw the program makes from a stream.
STREAM_DRAWS = {
    "random": lambda rng: rng.random(5),
    "standard_normal": lambda rng: rng.standard_normal(5),
    "poisson": lambda rng: rng.poisson(2.5, size=5),
    "beta": lambda rng: rng.beta(0.5, 2.0, size=5),
    "multinomial": lambda rng: rng.multinomial(40, [0.2, 0.3, 0.5]),
    "item_counts": lambda rng: lower_bound_distribution(5).sample_counts(rng, 100),
    "poisson_counts": lambda rng: Poisson(1.0).sample(rng, 9),
    "zeta_counts": lambda rng: TruncatedZeta(6.0, p0=0.35).sample(rng, 9),
    "two_point_counts": lambda rng: TwoPoint(0.3, 4).sample(rng, 9),
    "sphere": lambda rng: _draw_vectors(rng, 6, SphereUniform(), 2),
    "gaussian_iid": lambda rng: _draw_vectors(rng, 6, GaussianIid(), 2),
    "radial_beta": lambda rng: _draw_vectors(rng, 6, RadialBetaMixture(), 2),
}
stream_seeds = st.integers(0, 2**64 - 1)
stream_tags = st.lists(st.one_of(st.text(max_size=6), st.integers(-10**6, 10**6)),
                       max_size=3).map(tuple)
draw_names = st.lists(st.sampled_from(sorted(STREAM_DRAWS)), min_size=1, max_size=6)


def _draws(rng, names):
    return [STREAM_DRAWS[name](rng) for name in names]


def _same_draws(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def block_error(block, experiment, start, seeds, oracle):
    """The error of _run_block's (text, seeds, fs, aux, error) on param_hash
    "h", after asserting that the block holds these seeds and the oracle's
    (f, aux) of each: seed, f (bit for bit) and aux columns, and text the
    rows records_to_csv writes for them."""
    text, block_seeds, fs, aux, error = block
    assert block_seeds.dtype == np.uint64 and block_seeds.tolist() == seeds
    assert fs.dtype == np.float64
    assert [f.hex() for f in fs.tolist()] == [float(f).hex() for f, _ in oracle]
    assert aux == {key: [a[key] for _, a in oracle]
                   for key in experiments.AUX_KEYS[experiment]}
    records = [ExperimentRecord(experiment, start + i, seed, "h", f, a)
               for i, (seed, (f, a)) in enumerate(zip(seeds, oracle))]
    assert text == records_to_csv(records).split("\n", 1)[1]
    return error


class TestRngStreams:
    @given(stream_seeds, stream_tags, draw_names)
    @settings(max_examples=60, deadline=None)
    def test_substream_matches_philox_key_construction(self, seed, tags, names):
        rng, oracle = substream(seed, *tags), substream_oracle(seed, *tags)
        assert _same_draws(_draws(rng, names), _draws(oracle, names))
        assert repr(rng.bit_generator.state) == repr(oracle.bit_generator.state)

    @given(stream_seeds, stream_tags, stream_tags, st.booleans(), draw_names)
    @settings(max_examples=60, deadline=None)
    def test_live_streams_are_independent(self, seed, tags_a, tags_b, same_key, names):
        # Two live streams, even on one key, never share a bit generator,
        # so drawing them interleaved gives what each gives alone.
        tags_b = tags_a if same_key else tags_b
        a, b = substream(seed, *tags_a), substream(seed, *tags_b)
        assert a.bit_generator is not b.bit_generator
        interleaved_a, interleaved_b = [], []
        for name in names:
            interleaved_a.append(STREAM_DRAWS[name](a))
            interleaved_b.append(STREAM_DRAWS[name](b))
        assert _same_draws(interleaved_a, _draws(substream_oracle(seed, *tags_a), names))
        assert _same_draws(interleaved_b, _draws(substream_oracle(seed, *tags_b), names))

    @pytest.mark.parametrize("dirty, left", [
        (lambda gen: None, None),
        (lambda gen: gen.random(3), ("buffer_pos", 3)),
        (lambda gen: gen.integers(0, 10, size=3, dtype=np.uint32), ("has_uint32", 1)),
    ], ids=["fresh", "partial_draw", "odd_uint32_draw"])
    @given(seed=stream_seeds, tags=stream_tags, names=draw_names)
    @settings(max_examples=40, deadline=None)
    def test_restream_matches_new_substream(self, dirty, left, seed, tags, names):
        # Re-keying a used Philox, with words left in its buffer or a
        # saved 32-bit half, gives the state and draws of a new stream,
        # drawn through the Generator that was built on it before.
        bit_generator = np.random.Philox(0)
        generator = np.random.Generator(bit_generator)
        dirty(generator)
        if left is not None:
            assert bit_generator.state[left[0]] == left[1]
        assert restream(bit_generator, seed, *tags) is bit_generator
        new = substream(seed, *tags)
        assert repr(bit_generator.state) == repr(new.bit_generator.state)
        assert _same_draws(_draws(generator, names), _draws(new, names))

    def test_random_is_the_top_53_bits_of_each_word(self):
        # the identity the chernoff block's raw-word test rests on
        words = substream(5, "chernoff").bit_generator.random_raw(1000)
        assert np.array_equal(substream(5, "chernoff").random(1000),
                              (words >> 11) * 2.0**-53)

    def test_substream_deterministic(self):
        a = substream(7, "site", 3).random(5)
        b = substream(7, "site", 3).random(5)
        assert np.array_equal(a, b)

    def test_substream_tag_sensitivity(self):
        a = substream(7, "site", 3).random(5)
        b = substream(7, "site", 4).random(5)
        c = substream(8, "site", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derived_seed_is_fixed_function(self):
        # documented (base_seed, replicate) -> seed map must never drift
        assert derived_seed(0, 0) == derived_seed(0, 0)
        assert derived_seed(0, 0) != derived_seed(0, 1)
        assert derived_seed(1234, 7) == 4986012981735075401

    @pytest.mark.parametrize("base_seed", [0, 1, -7, 2**63 - 1, 2**64 - 1])
    @pytest.mark.parametrize("start, stop", [
        (0, 0), (0, 25), (9, 10), (10**6 - 5, 10**6 + 5), (2**63 - 3, 2**63 + 2)])
    def test_derived_seeds_match_derived_seed(self, base_seed, start, stop):
        assert list(derived_seeds(base_seed, start, stop)) == \
            [derived_seed(base_seed, r) for r in range(start, stop)]


class TestConfigSchema:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"\$\.bogus"):
            parse_config({"schema_version": 1, "experiment": "lis",
                          "replicates": 1, "base_seed": 0,
                          "parameters": {"n": 5}, "bogus": 1})

    def test_unknown_parameter_key(self):
        with pytest.raises(ConfigError, match=r"\$\.parameters\.oops"):
            make_config(parameters={"n": 5, "oops": True})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"schema_version": 2, "experiment": "lis",
                          "replicates": 1, "base_seed": 0,
                          "parameters": {"n": 5}})

    def test_unknown_experiment(self):
        # a non-string value is refused with the same message, not a TypeError
        for experiment in ["nope", [], {"kind": "lis"}, None, 3]:
            with pytest.raises(ConfigError) as info:
                parse_config({"schema_version": 1, "experiment": experiment,
                              "replicates": 1, "base_seed": 0, "parameters": {}})
            assert str(info.value) == ("$.experiment: must be one of tsp, mwst, "
                                       "chromatic, jl, binpack, lis, chernoff, gauss_sum")

    def test_tsp_requires_perfect_square(self):
        with pytest.raises(ConfigError, match="n_cells"):
            make_config(experiment="tsp",
                        parameters={"n_cells": 12,
                                    "count_dist": {"kind": "poisson", "mean": 1.0}})

    def test_binpack_regime_warnings(self):
        cfg = make_config(experiment="binpack",
                          parameters={"dist": {"kind": "lower_bound", "k": 4},
                                      "n_items": 2000})
        assert any("regime" in w for w in cfg.warnings)

    @pytest.mark.parametrize("field", ["replicates", "base_seed"])
    def test_bool_is_not_an_integer(self, field):
        with pytest.raises(ConfigError, match=rf"\$\.{field}"):
            make_config(**{field: True})

    def test_param_hash_stable(self):
        a = make_config().param_hash()
        b = make_config().param_hash()
        assert a == b and len(a) == 12
        # SHA-256 of the canonical JSON of experiment and raw parameters:
        # key order does not matter.
        assert a == "efd50435ad06"
        params = {"n_cells": 16, "placement": "corner_bunch",
                  "count_dist": {"p0": 0.35, "s": 6.0, "kind": "zeta"}}
        reordered = {"count_dist": {"kind": "zeta", "s": 6.0, "p0": 0.35},
                     "placement": "corner_bunch", "n_cells": 16}
        assert make_config(experiment="tsp", parameters=params).param_hash() \
            == make_config(experiment="tsp", parameters=reordered).param_hash()

    @pytest.mark.parametrize("first, second", [("tsp", "mwst"), ("chernoff", "gauss_sum")])
    def test_param_hash_names_the_experiment(self, first, second):
        params = {"n_cells": 16} if first == "tsp" else {"n": 100}
        assert make_config(experiment=first, parameters=params).param_hash() \
            != make_config(experiment=second, parameters=params).param_hash()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_maximal_only_must_be_a_json_bool(self, value):
        # maximal_only is no config key: a run always enumerates the maximal
        # bin types, so any value of it, a JSON bool or not, is refused.
        with pytest.raises(ConfigError, match=r"\$\.parameters\.maximal_only: unknown key"):
            make_config(experiment="binpack",
                        parameters={"dist": {"kind": "lower_bound", "k": 4},
                                    "n_items": 10, "maximal_only": value})

    @pytest.mark.parametrize("value", [False, True])
    def test_maximal_only_bool(self, value):
        # A run's bin types are the maximal ones, and the LP value over them
        # is the value over either enumeration.
        dist = lower_bound_distribution(5)
        cfg = make_config(experiment="binpack",
                          parameters={"dist": {"kind": "lower_bound", "k": 5},
                                      "n_items": 10})
        types = cfg.parameters["bin_types"]
        assert types.rows.tolist() == enumerate_bin_types(dist).rows.tolist()
        for counts in ([3, 1], [7, 2], [0, 5]):
            assert solve_packing_lp(types, counts).value == pytest.approx(
                solve_packing_lp(enumerate_bin_types(dist, maximal_only=value),
                                 counts).value, rel=1e-12)

    # One config per experiment that sets every parameter key it accepts:
    # 20 keys in all.  No key sets a solver option.
    EVERY_KEY = {
        "tsp": {"n_cells": 4, "count_dist": {"kind": "poisson"}, "placement": "corner_bunch"},
        "mwst": {"n_cells": 4, "count_dist": {"kind": "poisson"}, "placement": "corner_bunch"},
        "chromatic": {"n": 4, "p_spec": {"kind": "uniform", "p": 0.5}, "method": "greedy"},
        "jl": {"n": 10, "k": 2, "family": {"kind": "sphere"}, "gate_samples": 100},
        "binpack": {"dist": {"kind": "lower_bound", "k": 4}, "n_items": 10},
        "lis": {"n": 5},
        "chernoff": {"n": 5, "nu": 0.3, "nus": {"kind": "alternating", "values": [0.2]}},
        "gauss_sum": {"n": 5},
    }

    def test_accepted_parameter_keys_are_pinned(self, tmp_path, capsys):
        assert set(self.EVERY_KEY) == set(config.SCALE_KEYS)
        assert sum(map(len, self.EVERY_KEY.values())) == 20
        every = {key for params in self.EVERY_KEY.values() for key in params}
        for experiment, params in self.EVERY_KEY.items():
            make_config(experiment=experiment, parameters=params)
            for key in sorted(every - set(params)):
                with pytest.raises(ConfigError, match=rf"^\$\.parameters\.{key}: unknown key$"):
                    make_config(experiment=experiment, parameters={**params, key: 1})
        # The solver settings that no run varied are constants, not keys.
        path = tmp_path / "cfg.json"
        for experiment, key in [("tsp", "max_passes"), ("chromatic", "exact_cap"),
                                ("binpack", "maximal_only")]:
            path.write_text(json.dumps({
                "schema_version": 1, "experiment": experiment, "replicates": 1,
                "parameters": {**self.EVERY_KEY[experiment], key: 1}}))
            assert cli.main(["run", str(path)]) == 2
            assert capsys.readouterr().err == \
                f"config error: $.parameters.{key}: unknown key\n"

    @pytest.mark.parametrize("experiment, parameters, path", [
        ("lis", {"n": True}, "n"),
        ("tsp", {"n_cells": True}, "n_cells"),
        ("tsp", {"n_cells": 16.0}, "n_cells"),
        ("tsp", {"n_cells": 16, "count_dist": {"kind": "zeta", "s": 6.0, "cap": True}},
         "count_dist.cap"),
        ("tsp", {"n_cells": 16, "count_dist": {"kind": "two_point", "p0": 0.5,
                                               "value": True}}, "count_dist.value"),
        ("tsp", {"n_cells": 16, "count_dist": {"kind": "deterministic", "k": True}},
         "count_dist.k"),
        ("chromatic", {"n": True}, "n"),
        ("jl", {"n": 10, "k": True}, "k"),
        ("jl", {"n": 10, "k": 2, "gate_samples": True}, "gate_samples"),
        ("binpack", {"n_items": True, "dist": {"kind": "lower_bound", "k": 4}}, "n_items"),
        ("binpack", {"n_items": 10, "dist": {"kind": "lower_bound", "k": True}}, "dist.k"),
        ("chernoff", {"n": 10.5}, "n"),
    ])
    def test_integer_fields_refuse_bool_and_non_integers(self, experiment, parameters,
                                                         path):
        with pytest.raises(ConfigError, match=rf"\$\.parameters\.{path}: must be an integer"):
            make_config(experiment=experiment, parameters=parameters)

    _NUMBERS = st.one_of(
        st.floats(), st.integers(min_value=-2**1100, max_value=2**1100),
        st.sampled_from([sys.float_info.max, int(sys.float_info.max),
                         int(sys.float_info.max) + 1, np.float64(0.5)]))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_NUMBERS, max_size=6), st.lists(st.one_of(
        _NUMBERS, st.booleans(), st.none(), st.text(max_size=2),
        st.lists(st.floats(), max_size=1)), max_size=6)), st.sampled_from([None, 0]))
    @example([math.nan], None)
    @example([0.5, -math.inf], None)
    @example([1, 10**400], None)
    @example([int(sys.float_info.max) + 1], None)
    @example([1.0, True], None)
    def test_float_list_checks_as_its_elements(self, items, low):
        # The [float] kind checks a list in one conversion, and must accept
        # and refuse exactly what the float kind does element by element,
        # naming the first bad element.
        try:
            want = [config.typed_value(x, f"$.v[{i}]", float, low)
                    for i, x in enumerate(items)]
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                config.typed_value(items, "$.v", [float], low)
            assert str(got.value) == str(exc)
            return
        got = config.typed_value(items, "$.v", [float], low)
        assert got.dtype == np.float64 and got.tolist() == want

    @pytest.mark.parametrize("matrix, problem", [
        ([[0, 0.5], [0.4, 0]], "symmetric"),
        ([[0.1, 0.5], [0.5, 0]], "zero diagonal"),
        ([[0, 1.5], [1.5, 0]], r"\[0, 1\]"),
        ([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]], "must be n x n = 2 x 2"),
        # A ragged matrix is refused at the path of its short row.
        pytest.param([[0, 0.5], [0.5]], r"\[1\]: must be a list of n = 2 numbers",
                     id="matrix4-inhomogeneous"),
    ])
    def test_chromatic_matrix_checked_at_parse(self, matrix, problem):
        with pytest.raises(ConfigError, match=rf"\$\.parameters\.p_spec\.p(?:: .*)?{problem}"):
            make_config(experiment="chromatic",
                        parameters={"n": 2, "p_spec": {"kind": "matrix", "p": matrix}})

    def test_config_is_frozen(self):
        cfg = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.base_seed = 1


class TestRecordsCsv:
    def test_round_trip(self):
        records = [
            ExperimentRecord("lis", 0, 11, "abc", 3.5, {"n_points": 4, "solver": "x"}),
            ExperimentRecord("lis", 1, 12, "abc", 4.5, {"n_points": 6, "solver": "y"}),
        ]
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert [r.f for r in back] == [3.5, 4.5]
        assert back[0].aux == {"n_points": 4.0, "solver": "x"}
        assert back[1].seed == 12

    def test_full_float_precision(self):
        value = 0.1 + 0.2  # not exactly 0.3
        records = [ExperimentRecord("lis", 0, 1, "h", value, {})]
        back = records_from_csv(records_to_csv(records))
        assert back[0].f == value

    @pytest.mark.parametrize("text, named", [
        ("", "line 1: expected a header"),
        ("# only a comment\n", "line 1: expected a header"),
        ("replicate,f\n0,1.0\n", "line 1: expected a header"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1,h\n", "line 2: expected 5 cells"),
        ("experiment,replicate,seed,param_hash,f\n# note\nlis,x,1,h,1.0\n", "line 3:"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1.5,h,1.0\n", "line 2:"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1,h,abc\n", "line 2:"),
    ], ids=["empty", "comment-only", "wrong-header", "short-row", "bad-replicate",
            "bad-seed", "bad-f"])
    def test_bad_csv_names_the_line(self, text, named):
        with pytest.raises(InvalidArgumentError, match=named):
            records_from_csv(text)


_NU_EDGES = (5e-324, 2.0**-53, math.nextafter(1.0, 0.0))
chernoff_nus = st.sampled_from(_NU_EDGES) | st.floats(0, 1, exclude_min=True,
                                                      exclude_max=True)


class TestChernoffBlock:
    """Chernoff replicates run as one block against the per-replicate
    oracle run_chernoff, bit for bit."""

    @given(n=st.integers(1, 2000), values=st.lists(chernoff_nus, min_size=1, max_size=5),
           alternating=st.booleans(), base_seed=st.integers(0, 2**63 - 1),
           start=st.integers(0, 10**6), count=st.integers(0, 12))
    @example(n=1, values=[5e-324], alternating=False, base_seed=0, start=0, count=3)
    @example(n=7, values=list(_NU_EDGES), alternating=True, base_seed=7, start=0, count=5)
    @example(n=1000, values=[math.nextafter(1.0, 0.0), 2.0**-53], alternating=True,
             base_seed=2**63 - 1, start=99, count=4)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_replicate_oracle(self, n, values, alternating, base_seed, start,
                                          count):
        parameters = ({"n": n, "nus": {"kind": "alternating", "values": values}}
                      if alternating else {"n": n, "nu": values[0]})
        params = make_config(experiment="chernoff", parameters=parameters).parameters
        block = _run_block("chernoff", params, base_seed, "h", start, start + count)
        expected = [derived_seed(base_seed, r) for r in range(start, start + count)]
        assert block_error(block, "chernoff", start, expected,
                           [run_chernoff(params, seed) for seed in expected]) is None

    def test_threshold_on_crafted_words(self, monkeypatch):
        # With K = ceil(nu * 2**53), the word K * 2**11 - 1 gives
        # u = (K - 1) * 2**-53 < nu and the word K * 2**11 gives u >= nu.
        means = [*_NU_EDGES, 0.3, 0.5, 1 / 3]
        ks = [math.ceil(Fraction(nu) * 2**53) for nu in means]
        words = np.array([w for k in ks for w in (k * 2**11 - 1, k * 2**11)], dtype=np.uint64)
        nus = np.repeat(means, 2)
        assert np.array_equal((words >> 11) * 2.0**-53 < nus, np.tile([True, False], len(ks)))

        class CraftedWords:
            def random_raw(self, size):
                assert size == len(words)
                return words

        class Rng:
            bit_generator = CraftedWords()

        params = make_config(experiment="chernoff", parameters={
            "n": len(nus), "nus": {"kind": "alternating", "values": nus.tolist()}}).parameters
        assert experiments.run_chernoff(params, Rng()) == (float(len(ks) - nus.sum()), {})

    def test_raise_leaves_the_completed_prefix(self, monkeypatch):
        calls = []

        def restream_failing_third(bit_generator, seed, *tags):
            calls.append(seed)
            if len(calls) == 3:
                raise RuntimeError("restream failed")
            return restream(bit_generator, seed, *tags)

        monkeypatch.setattr(runner, "restream", restream_failing_third)
        params = make_config(experiment="chernoff", parameters={"n": 20, "nu": 0.4}).parameters
        block = _run_block("chernoff", params, 1234, "h", 5, 10)
        seeds = [derived_seed(1234, r) for r in (5, 6)]
        error = block_error(block, "chernoff", 5, seeds,
                            [run_chernoff(params, s) for s in seeds])
        assert type(error) is RuntimeError and str(error) == "restream failed"


# Per-replicate oracles that build their own substream from the seed.
SEED_ORACLES = {"chernoff": run_chernoff, "gauss_sum": run_gauss_sum, "lis": run_lis,
                "binpack": run_binpack}


def _stream_block_parameters(experiment, size):
    # 4 cells give a few points for tsp_exact, 36 cells enough for 2-opt
    # (13 points or more, where tsp_exact would take much longer).
    grid = {"n_cells": 4 if size % 2 else 36, "count_dist": {"kind": "poisson", "mean": 1.0}}
    return {
        "tsp": grid,
        "mwst": grid,
        "chromatic": {"n": 1 + size % 12, "p_spec": {"kind": "uniform", "p": 0.4}},
        "jl": {"n": size, "k": 1 + size // 3},
        "binpack": {"dist": {"kind": "lower_bound", "k": 4 + size % 4}, "n_items": size},
        "chernoff": {"n": size, "nu": 0.3},
    }.get(experiment, {"n": size})


class TestStreamBlocks:
    """Every experiment's block, run on one re-keyed Generator, against its
    replicate function on a new substream per seed, bit for bit, and
    against the seed oracle where conftest has one."""

    @pytest.mark.parametrize("experiment", sorted(config._VALIDATORS))
    @given(size=st.integers(1, 300), base_seed=st.integers(0, 2**63 - 1),
           start=st.integers(0, 10**6), count=st.integers(0, 12))
    @example(size=1, base_seed=0, start=0, count=3)
    @example(size=300, base_seed=2**63 - 1, start=10**6, count=12)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_replicate_oracle(self, experiment, size, base_seed, start, count):
        params = make_config(experiment=experiment, parameters=_stream_block_parameters(
            experiment, size)).parameters
        block = _run_block(experiment, params, base_seed, "h", start, start + count)
        expected = [derived_seed(base_seed, r) for r in range(start, start + count)]
        fn, site = experiments.REPLICATE_FNS[experiment], experiments.STREAM_SITES[experiment]
        oracle = [fn(params, substream(seed, site)) for seed in expected]
        assert block_error(block, experiment, start, expected, oracle) is None
        if experiment in SEED_ORACLES:
            assert oracle == [SEED_ORACLES[experiment](params, seed) for seed in expected]

    def test_raise_leaves_the_completed_prefix(self, monkeypatch):
        calls = []

        def restream_failing_third(bit_generator, seed, *tags):
            calls.append(seed)
            if len(calls) == 3:
                raise RuntimeError("restream failed")
            return restream(bit_generator, seed, *tags)

        monkeypatch.setattr(runner, "restream", restream_failing_third)
        params = make_config(experiment="gauss_sum", parameters={"n": 20}).parameters
        block = _run_block("gauss_sum", params, 1234, "h", 5, 10)
        seeds = [derived_seed(1234, r) for r in (5, 6)]
        error = block_error(block, "gauss_sum", 5, seeds,
                            [run_gauss_sum(params, s) for s in seeds])
        assert type(error) is RuntimeError and str(error) == "restream failed"


class TestGaussRows:
    """gauss_sum blocks draw each replicate into one row of a chunk and sum
    the chunk in one call; against run_gauss_sum and conftest's seed oracle,
    bit for bit, at the lengths where numpy's pairwise sum changes shape and
    across chunk boundaries."""

    @given(n=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 1000]), rows=st.integers(0, 13),
           spare=st.integers(0, 10**6), base_seed=st.integers(0, 2**63 - 1),
           start=st.integers(0, 10**6), count=st.integers(0, 12))
    @example(n=129, rows=2, spare=0, base_seed=0, start=0, count=5)
    @example(n=1000, rows=0, spare=999, base_seed=2**63 - 1, start=10**6, count=3)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_replicate_oracles(self, n, rows, spare, base_seed, start, count):
        # A chunk cap of rows * n plus less than one row holds max(1, rows)
        # rows, so most blocks here cross a chunk boundary.
        params = make_config(experiment="gauss_sum", parameters={"n": n}).parameters
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "ROW_CHUNK_ENTRIES", rows * n + spare % n)
            block = _run_block("gauss_sum", params, base_seed, "h", start, start + count)
        expected = [derived_seed(base_seed, r) for r in range(start, start + count)]
        oracle = [experiments.run_gauss_sum(params, substream(seed, "gauss"))
                  for seed in expected]
        assert block_error(block, "gauss_sum", start, expected, oracle) is None
        assert oracle == [run_gauss_sum(params, seed) for seed in expected]

    def test_raise_in_a_later_chunk_leaves_the_completed_prefix(self, monkeypatch):
        # Chunks of 3 rows: the fifth replicate fails after the first chunk
        # was summed and one row of the second was drawn.
        calls = []

        def restream_failing_fifth(bit_generator, seed, *tags):
            calls.append(seed)
            if len(calls) == 5:
                raise RuntimeError("restream failed")
            return restream(bit_generator, seed, *tags)

        monkeypatch.setattr(runner, "restream", restream_failing_fifth)
        monkeypatch.setattr(runner, "ROW_CHUNK_ENTRIES", 3 * 20)
        params = make_config(experiment="gauss_sum", parameters={"n": 20}).parameters
        block = _run_block("gauss_sum", params, 1234, "h", 5, 15)
        seeds = [derived_seed(1234, r) for r in range(5, 9)]
        error = block_error(block, "gauss_sum", 5, seeds,
                            [run_gauss_sum(params, s) for s in seeds])
        assert type(error) is RuntimeError and str(error) == "restream failed"

    def test_block_holds_one_chunk(self):
        # 200 replicates of 5000 normals: a chunk holds 26 rows (1.04 MB),
        # so the block never holds all 200 rows (8 MB) at once.
        n, count = 5000, 200
        params = make_config(experiment="gauss_sum", parameters={"n": n}).parameters
        tracemalloc.start()
        try:
            block = _run_block("gauss_sum", params, 7, "h", 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block[4] is None and len(block[2]) == count
        assert peak < 8 * (runner.ROW_CHUNK_ENTRIES // n) * n + 2**17


def assert_streamed_records_are(cfg, workers, out, digest):
    """The records file run_experiment streams is records_to_csv of the
    records it returns, and has this SHA-256."""
    records, _ = run_experiment(cfg, workers=workers, out=str(out))
    text = out.read_text()
    assert text == records_to_csv(records)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRunExperiment:
    def test_records_in_order_and_reproducible(self, tmp_path):
        cfg = make_config()
        out = tmp_path / "records.csv"
        records, summary = run_experiment(cfg, out=str(out))
        assert [r.replicate for r in records] == list(range(40))
        text_one = out.read_text()
        records2, _ = run_experiment(cfg, out=str(out))
        assert out.read_text() == text_one

    def test_worker_count_independence(self):
        cfg = make_config(replicates=12)
        a = records_to_csv(run_replicates(cfg, workers=1))
        b = records_to_csv(run_replicates(cfg, workers=3))
        assert a == b

    @pytest.mark.parametrize("replicates, workers, processes", [(2, 3, 2), (40, 2, 2)])
    def test_pool_never_outnumbers_its_blocks(self, monkeypatch, replicates, workers,
                                              processes):
        # 2 replicates on 3 workers make 2 blocks of 1, so 2 processes
        pools = []
        real_pool = runner.ProcessPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            assert max_workers <= 2, f"a pool of {max_workers} workers was started"
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", pool)
        cfg = make_config(replicates=replicates)
        records = run_replicates(cfg, workers=workers)
        assert pools == [processes]
        assert records_to_csv(records) == records_to_csv(run_replicates(cfg, workers=1))

    def test_blocks_give_serial_bytes(self, tmp_path):
        # 37 replicates on 2 workers run in blocks of 2 and a last block of 1.
        cfg = make_config(experiment="chernoff", replicates=37,
                          parameters={"n": 50, "nu": 0.3})
        texts = []
        for workers in (1, 2):
            out = tmp_path / f"records_w{workers}.csv"
            records, _ = run_experiment(cfg, workers=workers, out=str(out))
            texts.append(out.read_bytes())
            assert [r.replicate for r in records] == list(range(37))
            assert [r.seed for r in records] == [derived_seed(cfg.base_seed, i)
                                                 for i in range(37)]
        assert texts[0] == texts[1]

    # SHA-256 of the records CSV of two chernoff configs, as the
    # per-replicate Generator path wrote them.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("parameters, digest", [
        ({"n": 300, "nu": 0.3},
         "2228a6e9fa8776313d8b6cf8a66d947a987bd160adc25cca6d0f87d01a012dbe"),
        ({"n": 301, "nus": {"kind": "alternating",
                            "values": [5e-324, 2.0**-53, 0.3, math.nextafter(1.0, 0.0)]}},
         "0017610bc60a083421ad85faee709471c76eeb6558d04b1cfd2fe072efe5618f"),
    ], ids=["nu", "nus"])
    def test_chernoff_records_are_pinned(self, tmp_path, parameters, digest, workers):
        cfg = make_config(experiment="chernoff", replicates=50, base_seed=20261019,
                          parameters=parameters)
        assert_streamed_records_are(cfg, workers, tmp_path / "records.csv", digest)

    # SHA-256 of the records CSV of one config of each other experiment, as
    # the per-replicate Generator path wrote them (gauss_sum, lis, binpack)
    # and as the samplers that built their own substream from the seed
    # wrote them (tsp, mwst, chromatic, jl).
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("experiment, parameters, replicates, digest", [
        ("gauss_sum", {"n": 37}, 50,
         "e1063a04567690e749571b39aa6999c9315fb2db8b9bde7b89e365eee4b2963b"),
        ("lis", {"n": 60}, 50,
         "f75b050c5271c542900eff17852f51e7f0958492579cbd5ea488b594e17daebc"),
        ("binpack", {"dist": {"kind": "lower_bound", "k": 5}, "n_items": 200}, 30,
         "70500e6539c21d62ae0dbeb55e3fa54fc7f85dfe2a642879dfda34505b04e4ba"),
        ("tsp", {"n_cells": 16, "count_dist": {"kind": "poisson", "mean": 1.0}}, 30,
         "317ac0c1c4028a940c3e8d20ecc8ce581e01cd1ddad9d6884d3c1c5551ec1e21"),
        ("mwst", {"n_cells": 25, "count_dist": {"kind": "zeta", "s": 3.5, "cap": 50}}, 30,
         "66260bf0cc660c4885ff2b7809c74c2458e45b43a69e1c9b76ee37b90b79cdc5"),
        ("chromatic", {"n": 12, "p_spec": {"kind": "uniform", "p": 0.4}}, 30,
         "19645f53ad02524406a061da25a72b236ed3b21f4b58e77bbb03269ae10f9876"),
        ("jl", {"n": 50, "k": 10}, 30,
         "cca74bc4ab90a9e78f3bc83f4a44cca04109f688d0935fff4b0b22f365d7b6f6"),
    ], ids=["gauss_sum", "lis", "binpack", "tsp", "mwst", "chromatic", "jl"])
    def test_stream_block_records_are_pinned(self, tmp_path, experiment, parameters,
                                             replicates, digest, workers):
        cfg = make_config(experiment=experiment, replicates=replicates,
                          base_seed=20261019, parameters=parameters)
        assert_streamed_records_are(cfg, workers, tmp_path / "records.csv", digest)

    def test_single_replicate_sd_undefined(self):
        cfg = make_config(replicates=1)
        records, summary = run_experiment(cfg)
        assert summary.sd is None

    def test_partial_csv_on_failure(self, tmp_path, monkeypatch):
        from tailbounds.harness import experiments

        # A multi-line message still leaves a one-line trailer.
        cfg = make_config(replicates=6)
        for message in ("replicate exploded", "replicate exploded\nsecond line\r\n"):
            calls = []

            def broken(params, rng):
                calls.append(1)
                if len(calls) == 4:
                    raise RuntimeError(message)
                return 1.0, {}

            monkeypatch.setitem(experiments.REPLICATE_FNS, "lis", broken)
            out = tmp_path / "partial.csv"
            with pytest.raises(RuntimeError, match="exploded"):
                run_experiment(cfg, workers=1, out=str(out))
            assert len(calls) == 4
            text = out.read_text()
            trailer = text.splitlines()[-1]
            assert trailer.startswith("# error") and "exploded" in trailer
            assert [r.replicate for r in records_from_csv(text)] == [0, 1, 2]

    @pytest.mark.parametrize("failing", [6, 7])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_partial_csv_keeps_every_earlier_replicate(self, tmp_path, monkeypatch, workers,
                                                       failing):
        # 40 replicates run in blocks of 5 on 1 worker, 2 on 2 and 1 on 3:
        # replicate 6 opens a block on 2 workers and 7 falls inside one, and
        # either way the file keeps replicates 0 to failing - 1 and the
        # one-line trailer.
        cfg = make_config(replicates=40)
        clean = tmp_path / "clean.csv"
        run_experiment(cfg, workers=1, out=str(clean))
        failing_seed = derived_seed(cfg.base_seed, failing)

        def restream_failing(bit_generator, seed, *tags):
            if seed == failing_seed:
                raise RuntimeError(f"replicate {failing} exploded\nsecond line")
            return restream(bit_generator, seed, *tags)

        monkeypatch.setattr(runner, "restream", restream_failing)
        out = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match=f"replicate {failing} exploded"):
            run_experiment(cfg, workers=workers, out=str(out))
        lines = out.read_text().splitlines()
        assert lines[:-1] == clean.read_text().splitlines()[:failing + 1]
        assert lines[-1] == (f"# error experiment=lis message=replicate {failing} "
                             "exploded second line")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replicate_error_shows_its_frames(self, monkeypatch, workers):
        # A pool worker's traceback comes back as the cause, as text; with
        # one worker the exception keeps its own traceback.
        def explode_in_replicate(params, rng):
            raise KeyError("replicate exploded")

        monkeypatch.setitem(experiments.REPLICATE_FNS, "lis", explode_in_replicate)
        with pytest.raises(KeyError, match="replicate exploded") as info:
            run_replicates(make_config(replicates=6), workers=workers)
        assert "in explode_in_replicate" in "".join(traceback.format_exception(info.value))
        frames = [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
        assert (frames[-1] == "explode_in_replicate") == (workers == 1)

    def test_aux_keys_must_be_the_experiments(self, tmp_path, monkeypatch):
        calls = []

        def stray_key(params, rng):
            calls.append(1)
            return 1.0, {"solver": "x"} if len(calls) == 3 else {}

        monkeypatch.setitem(experiments.REPLICATE_FNS, "lis", stray_key)
        out = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=r"lis replicate 2: aux keys \['solver'\] are "
                                             r"not \[\]"):
            run_experiment(make_config(replicates=6), workers=1, out=str(out))
        text = out.read_text()
        assert text.splitlines()[0] == ",".join(runner.CSV_HEADER)
        assert [r.replicate for r in records_from_csv(text)] == [0, 1]

    @pytest.mark.parametrize("experiment, parameters", [
        ("tsp", {"n_cells": 9, "count_dist": {"kind": "poisson", "mean": 1.5}}),
        ("chromatic", {"n": 8, "p_spec": {"kind": "uniform", "p": 0.4}}),
        ("binpack", {"dist": {"kind": "lower_bound", "k": 5}, "n_items": 50}),
        ("jl", {"n": 20, "k": 5}),
        ("chernoff", {"n": 50, "nu": 0.3}),
    ])
    def test_records_view_matches_its_csv(self, tmp_path, experiment, parameters):
        # what perfbench and the tests read from run_experiment's records:
        # the same fields, length, indexing and summary as records_from_csv
        # of the file it wrote
        cfg = make_config(experiment=experiment, replicates=30, parameters=parameters)
        out = tmp_path / "records.csv"
        records, summary = run_experiment(cfg, workers=2, out=str(out))
        back = records_from_csv(out.read_text())
        assert isinstance(records, Records) and isinstance(back, Records)
        assert len(records) == len(back) == 30
        for got, read in zip(records, back):
            assert (got.experiment, got.replicate, got.seed, got.param_hash) == \
                (read.experiment, read.replicate, read.seed, read.param_hash)
            assert got.f.hex() == read.f.hex()
            assert got.aux == read.aux and sorted(got.aux) == list(
                experiments.AUX_KEYS[experiment])
        assert [r.replicate for r in records] == list(range(30))
        assert records[-1] == records[29] == back[29]
        assert records[3:6] == back[3:6] == [records[i] for i in range(3, 6)]
        with pytest.raises(IndexError):
            records[30]
        assert records.f.dtype == np.float64 and np.array_equal(records.f, back.f)
        for again in (summarize(records), summarize(back)):
            assert (again.experiment, again.replicates, again.mean, again.sd) == \
                (summary.experiment, summary.replicates, summary.mean, summary.sd)
            assert np.array_equal(again.t_grid, summary.t_grid)
            assert np.array_equal(again.empirical, summary.empirical)

    def test_output_path_checked_before_first_replicate(self, tmp_path, monkeypatch):
        from tailbounds.harness import experiments

        calls = []

        def counted(params, rng):
            calls.append(1)
            return 1.0, {}

        monkeypatch.setitem(experiments.REPLICATE_FNS, "lis", counted)
        for bad in (tmp_path / "missing" / "records.csv", tmp_path):
            with pytest.raises(OSError):
                run_experiment(make_config(replicates=6), workers=1, out=str(bad))
        assert calls == []
        # the patched function is what a run with a good path calls
        run_experiment(make_config(replicates=6), workers=1,
                       out=str(tmp_path / "records.csv"))
        assert len(calls) == 6

    @pytest.mark.filterwarnings("error")
    def test_jl_gate_on_an_extreme_family_warns_nothing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "jl", "replicates": 5,
            "parameters": {"n": 200, "k": 60, "family": {"kind": "radial_beta",
                                                        "scale": 1e308}}}))
        code, _, err = run_cli("run", str(cfg), "--out", str(tmp_path / "records.csv"))
        assert code == 3
        assert "even-moment growth constant inf exceeds" in err

    def test_jl_gate_refuses_bad_family(self):
        cfg = make_config(
            experiment="jl",
            parameters={"n": 200, "k": 60,
                        "family": {"kind": "radial_beta", "scale": 4.0,
                                   "a": 0.5, "b": 0.5},
                        "gate_samples": 1500},
            replicates=5,
        )
        with pytest.raises(HypothesisViolationError):
            run_experiment(cfg)

    def test_summary_recomputable_from_csv(self, tmp_path):
        cfg = make_config(replicates=60)
        out = tmp_path / "r.csv"
        _, summary = run_experiment(cfg, out=str(out))
        back = summarize(records_from_csv(out.read_text()))
        assert back.mean == summary.mean
        assert back.sd == summary.sd
        assert np.array_equal(back.t_grid, summary.t_grid)
        assert np.array_equal(back.empirical, summary.empirical)

    def test_tail_curve_non_increasing(self):
        _, summary = run_experiment(make_config(replicates=80))
        emp = summary.empirical
        assert all(a >= b for a, b in zip(emp, emp[1:]))


@pytest.fixture(scope="module")
def bernoulli_records():
    cfg = make_config(experiment="chernoff", replicates=3000,
                      parameters={"n": 400, "nu": 0.5})
    return run_replicates(cfg)


class TestCompareBound:

    def test_bernoulli_dominated(self, bernoulli_records):
        summary = compare_bound(bernoulli_records, "chernoff_corollary",
                                {"kind": "bernoulli", "n": 400, "sigma2": 0.25})
        assert summary.bound_method == "ChernoffCorollary"
        assert summary.dominated

    def test_constant_functional_trivially_dominated(self):
        records = records_of([2.0] * 200)
        summary = compare_bound(records, "chernoff_corollary",
                                {"kind": "bernoulli", "n": 100, "sigma2": 0.25})
        assert (summary.empirical == 0).all()
        assert summary.dominated

    def test_profile_source_explicit(self):
        rng = substream(43, "explicit")
        sums = rng.choice([-1.0, 1.0], size=(2000, 10)).sum(axis=1)
        records = records_of(sums)
        profile = MomentProfile.uniform(10, {2: 1.0, 4: 1.0})
        summary = compare_bound(records, "theorem1_recursion",
                                {"kind": "profile", "profile": profile})
        assert summary.dominated

    def test_understated_spread_is_not_dominated(self):
        # f with sd about 100 against the closed form of one variable,
        # whose tail is 96 / t^2: at the first grid point (t about 50) the
        # bound is about 0.04 and the empirical tail about 0.6.
        records = records_of(100.0 * substream(45, "wide").standard_normal(200))
        summary = compare_bound(records, None, {"kind": "closed", "n": 1})
        assert summary.bound[0] < 0.05 and summary.empirical[0] > 0.5
        assert summary.verdicts[0] is False
        assert summary.dominated is False

    def test_excess_within_three_standard_errors_is_dominated(self):
        # The closed form of one variable bounds the tail at t = 20 by
        # 96 / 400 = 0.24.  Over 100 records an empirical tail of 0.30 lies
        # 1.3 binomial SEs above it and stays dominated; 0.40 lies 3.3 SEs
        # above it and does not.
        summary = ConcentrationSummary(experiment="x", replicates=100, mean=0.0, sd=1.0,
                                       t_grid=np.array([20.0, 20.0]),
                                       empirical=np.array([0.30, 0.40]))
        compare_bound(records_of(range(100)), None, {"kind": "closed", "n": 1},
                      summary=summary)
        assert summary.bound.tolist() == [0.24000000000000005] * 2
        assert summary.verdicts == [True, False]
        assert summary.dominated is False

    def test_one_moment_curve_per_bound_curve(self, monkeypatch):
        # One recursion pass for the whole t-grid, and one main-theorem
        # evaluation per order, not one per (order, t).
        from tailbounds import bounds
        from tailbounds.harness import runner

        calls = {"recursion": 0, "main": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(runner, "theorem1_recursion_curve",
                            counted("recursion", bounds.theorem1_recursion_curve))
        monkeypatch.setattr(bounds, "main_theorem_bound",
                            counted("main", bounds.main_theorem_bound))
        records = records_of([i % 7 for i in range(200)])
        moments = {2: 1.0, 4: 3.0, 6: 15.0}
        deltas = {2: 0.1, 4: 0.1, 6: 0.1}
        compare_bound(records, "theorem1_recursion",
                      {"kind": "profile", "profile": MomentProfile.uniform(10, moments)})
        compare_bound(records, "main_theorem", {
            "kind": "profile",
            "profile": TypicalProfile.uniform(10, moments, moments, deltas)})
        assert calls == {"recursion": 1, "main": 3}

    def test_needs_enough_records(self):
        records = records_of(range(10))
        with pytest.raises(InvalidArgumentError):
            compare_bound(records, "any", {"kind": "bernoulli", "n": 10, "sigma2": 0.25})

    def test_unknown_profile_kind(self):
        records = records_of(range(150))
        for kind in ("mystery", "empirical"):
            with pytest.raises(InvalidArgumentError, match=f"unknown profile source '{kind}'"):
                compare_bound(records, "x", {"kind": kind})

    def test_bound_curve_reproducible_from_logged_profile(self, bernoulli_records):
        from tailbounds.bounds import chernoff_corollary_bound

        summary = compare_bound(bernoulli_records, "chernoff_corollary",
                                {"kind": "bernoulli", "n": 400, "sigma2": 0.25})
        desc = summary.extras["bound_profile"]
        redo = [chernoff_corollary_bound(desc["n"], desc["sigma2"], float(t)).tail_probability
                for t in summary.t_grid]
        assert redo == summary.bound.tolist()

    @pytest.mark.parametrize("source, label", [
        ({"kind": "closed", "n": 9}, "Theorem1Closed"),
        ({"kind": "jl", "n": 50, "k": 9}, "JlMomentEnvelope"),
        ({"kind": "profile", "profile": MomentProfile.uniform(10, {2: 1.0, 4: 3.0, 6: 15.0})},
         "Theorem1Recursion"),
        ({"kind": "profile", "profile": TypicalProfile.uniform(
            10, {2: 1.0, 4: 3.0, 6: 15.0}, {2: 1.0, 4: 3.0, 6: 15.0}, {2: 0.1, 4: 0.1, 6: 0.1})},
         "MainTheorem"),
    ], ids=["closed", "jl", "moment_profile", "typical_profile"])
    def test_tail_at_matches_compare_bound(self, source, label):
        # The bound command prints bound_source's tail at one t;
        # compare_bound evaluates the same moment curve over the whole grid
        # in one call, and each point is the same double.
        records = records_of(40.0 * substream(44, "spread").standard_normal(300))
        summary = compare_bound(records, None, source)
        method, record, _ = bound_source(source, summary.t_grid)
        assert summary.bound_method == method.value == label
        assert summary.extras["bound_profile"] == record
        assert (summary.bound < 1.0).any()
        assert [b.hex() for b in summary.bound.tolist()] == [
            bound_source(source, [t])[2].tail_probability[0].hex()
            for t in summary.t_grid.tolist()]


class TestBuiltOnce:
    """Validation builds each domain object once; replicates only read it."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        # Patch every binding of owner.name in a loaded tailbounds module,
        # so the count does not depend on which module calls it.
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, counted)
            return calls
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("tailbounds") and module is not None \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_chromatic_matrix_built_once(self, monkeypatch):
        from tailbounds.graphs import EdgeProbabilityMatrix

        built = self._count(monkeypatch, EdgeProbabilityMatrix, "__post_init__")
        cfg = make_config(experiment="chromatic", replicates=20,
                          parameters={"n": 8, "p_spec": {"kind": "uniform", "p": 0.3}})
        records, summary = run_experiment(cfg, workers=1)
        assert len(records) == 20 and "mad_p" in summary.extras
        assert len(built) == 1

    def test_binpack_distribution_and_bin_types_built_once(self, monkeypatch):
        built = self._count(monkeypatch, packing.ItemDistribution, "__post_init__")
        enumerated = self._count(monkeypatch, packing, "enumerate_bin_types")
        cfg = make_config(experiment="binpack", replicates=20,
                          parameters={"dist": {"kind": "lower_bound", "k": 5},
                                      "n_items": 200})
        records, summary = run_experiment(cfg, workers=1)
        assert len(records) == 20 and "variance_scale" in summary.extras
        assert (len(built), len(enumerated)) == (1, 1)

    def test_seed_derived_once_per_replicate(self, monkeypatch):
        # Every seed comes from rng.derived_seeds, once a replicate.
        from tailbounds.harness import rng

        derived = self._count(monkeypatch, rng, "derived_seed")
        taken = []
        original = rng.derived_seeds

        def counted(*args):
            for seed in original(*args):
                taken.append(seed)
                yield seed

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("tailbounds") and module is not None \
                    and getattr(module, "derived_seeds", None) is original:
                monkeypatch.setattr(module, "derived_seeds", counted)
        for experiment, parameters in (("chernoff", {"n": 30, "nu": 0.5}),
                                       ("gauss_sum", {"n": 30}),
                                       ("chromatic", {"n": 5})):
            taken.clear()
            cfg = make_config(experiment=experiment, replicates=25, parameters=parameters)
            records = run_replicates(cfg, workers=1)
            assert taken == [r.seed for r in records] == \
                [derived_seed(cfg.base_seed, r) for r in range(25)]
        assert derived == []

    def test_param_hash_computed_once_per_run(self, monkeypatch):
        from tailbounds.harness.config import ExperimentConfig

        hashed = self._count(monkeypatch, ExperimentConfig, "param_hash")
        run_experiment(make_config(replicates=20), workers=1)
        assert len(hashed) == 1


class TestScalingStudy:
    def test_gauss_reference_slope(self):
        cfg = make_config(experiment="gauss_sum", replicates=800,
                          parameters={"n": 100})
        study = scaling_study(cfg, [100, 400, 900])
        assert study.slope == pytest.approx(0.5, abs=0.06)

    def test_requires_three_sizes(self):
        cfg = make_config(experiment="gauss_sum", parameters={"n": 100})
        with pytest.raises(InvalidArgumentError):
            scaling_study(cfg, [100, 400])

    def test_holds_one_size_at_a_time(self, monkeypatch):
        # each chernoff size holds 16 bytes a variable once validated (its
        # means and their raw-word thresholds) and 24 while it is validated;
        # the study must not keep every size's config while the sizes run,
        # which would hold at least 16 * sum(sizes) = 52.8 MB
        from tailbounds.harness import runner

        sizes = [10**6, 11 * 10**5, 12 * 10**5]
        peaks = []

        def measured(config, workers=1):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return records_of([0.0, 1.0])

        monkeypatch.setattr(runner, "run_replicates", measured)
        cfg = make_config(experiment="chernoff", replicates=2, parameters={"n": 10})
        tracemalloc.start()
        try:
            study = scaling_study(cfg, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.n for row in study.rows] == sizes and len(peaks) == 3
        assert peak < 1.25 * 24 * max(sizes)


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "records.csv"
        cfg_path.write_text(json.dumps({
            "schema_version": 1, "experiment": "lis", "replicates": 25,
            "base_seed": 3, "parameters": {"n": 40},
            "output": str(out_path),
        }))
        assert cli.main(["run", str(cfg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "lis"
        assert out_path.exists()
        assert cli.main(["report", str(out_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == payload["mean"]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        raw = {"schema_version": 1, "experiment": "lis", "replicates": 25,
               "base_seed": 3, "parameters": {"n": 40}}
        outputs = []
        for base_seed, argv in ((3, ["--seed", "8"]), (8, [])):
            cfg_path = tmp_path / f"cfg{base_seed}.json"
            cfg_path.write_text(json.dumps({**raw, "base_seed": base_seed}))
            out = tmp_path / f"records{base_seed}.csv"
            assert cli.main(["run", str(cfg_path), "--out", str(out), *argv]) == 0
            outputs.append(out.read_text())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "experiment": "lis",
                                   "replicates": 1, "base_seed": 0,
                                   "parameters": {"n": 5, "zzz": 0}}))
        assert cli.main(["run", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.json")]) == 2

    def test_hypothesis_violation_exit_code(self, tmp_path):
        cfg = tmp_path / "jl.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "jl", "replicates": 5,
            "base_seed": 0,
            "parameters": {"n": 200, "k": 60, "gate_samples": 1500,
                           "family": {"kind": "radial_beta", "scale": 4.0,
                                      "a": 0.5, "b": 0.5}},
        }))
        assert cli.main(["run", str(cfg)]) == 3

    def test_zero_radius_half_refused_for_its_trend(self, tmp_path):
        # Beta(0.001, 2) radii underflow to 0 in about half the draws, so
        # Y_i^2 is 0 exactly when W is 0
        cfg = tmp_path / "jl.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "jl", "replicates": 5,
            "base_seed": 6,
            "parameters": {"n": 200, "k": 60, "gate_samples": 2000,
                           "family": {"kind": "radial_beta", "scale": 1.2,
                                      "a": 1e-3, "b": 2.0}},
        }))
        code, _, err = run_cli("run", str(cfg), "--out", str(tmp_path / "records.csv"))
        assert code == 3
        assert "conditional second moment increases with the prefix sum" in err
        assert not (tmp_path / "records.csv").exists()

    def test_size_limit_exit_code(self, tmp_path):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "chromatic", "replicates": 1,
            "base_seed": 0,
            "parameters": {"n": 40, "p_spec": {"kind": "uniform", "p": 0.2},
                           "method": "exact"},
        }))
        assert cli.main(["run", str(cfg)]) == 4

    def test_simplex_pivot_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # With no pivots allowed the first replicate's LP runs out of budget.
        monkeypatch.setattr(packing, "MAX_PIVOTS", 0)
        cfg = tmp_path / "binpack.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "binpack", "replicates": 3, "base_seed": 0,
            "parameters": {"dist": {"kind": "lower_bound", "k": 5}, "n_items": 50},
        }))
        out = tmp_path / "records.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "MAX_PIVOTS = 0" in err and "Traceback" not in err
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[-1].startswith("# error experiment=binpack message=") \
            and "MAX_PIVOTS" in lines[-1]

    @pytest.mark.parametrize("count_dist, named", [
        ({"kind": "zeta", "s": 6.0, "cap": 10**12}, "$.parameters.count_dist.cap"),
        ({"kind": "poisson", "mean": 1e12}, "$.parameters.count_dist:"),
    ])
    def test_oversized_grid_refused_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                      count_dist, named):
        def allocate(*args):
            raise AssertionError("a table or point set was built before the size check")

        # Every zeta law computation starts from one of these two builders.
        monkeypatch.setattr(pointproc, "_zeta_normaliser", allocate)
        monkeypatch.setattr(pointproc, "_zeta_cdf", allocate)
        monkeypatch.setattr(experiments, "sample_point_set", allocate)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "tsp", "replicates": 1,
            "parameters": {"n_cells": 4, "count_dist": count_dist},
        }))
        tracemalloc.start()
        try:
            code = cli.main(["run", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert named in err
        assert peak < 10**6

    def test_zeta_counts_parse_and_draw_in_little_memory(self):
        # The benchmark's mst-heavytail grid: the law at the default cap of
        # 10^6 keeps no table of every count.
        pointproc._zeta_normaliser.cache_clear()
        pointproc._zeta_cdf.cache_clear()
        raw = {"schema_version": 1, "experiment": "mwst", "replicates": 20, "base_seed": 1,
               "parameters": {"n_cells": 2500, "placement": "corner_bunch",
                              "count_dist": {"kind": "zeta", "s": 6.0, "p0": 0.35}}}
        tracemalloc.start()
        try:
            dist = parse_config(raw).parameters["count_dist"]
            counts = dist.sample(substream(1, "pointset"), 2500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.cap == 10**6 and len(counts) == 2500
        assert peak < 10**6

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"],
        ["scale", "{cfg}", "--n-list", "10", "20", str(MAX_CHERNOFF_N + 1)],
    ], ids=["run", "scale"])
    @pytest.mark.parametrize("parameters", [
        {"n": MAX_CHERNOFF_N + 1, "nu": 0.5},
        {"n": 10**400, "nus": {"kind": "alternating", "values": [0.2, 0.7]}},
    ], ids=["nu", "nus"])
    def test_oversized_chernoff_refused_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                          argv, parameters):
        def spy(real, size_at):
            def allocate(*args, **kwargs):
                assert args[size_at] <= MAX_CHERNOFF_N, \
                    "an array of n means was built before the size check"
                return real(*args, **kwargs)
            return allocate

        monkeypatch.setattr(np, "full", spy(np.full, 0))
        monkeypatch.setattr(np, "resize", spy(np.resize, 1))
        if argv[0] == "scale":
            parameters = {**parameters, "n": 10}
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "chernoff",
                                   "replicates": 100, "parameters": parameters}))
        tracemalloc.start()
        try:
            code = cli.main([arg.format(cfg=cfg) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert f"$.parameters.n: above MAX_CHERNOFF_N = {MAX_CHERNOFF_N}" in err
        assert peak < 10**6

    def test_chernoff_n_cap_is_inclusive(self):
        raw = {"schema_version": 1, "experiment": "chernoff", "replicates": 1,
               "parameters": {"n": MAX_CHERNOFF_N}}
        assert len(parse_config(raw).parameters["nus"]) == MAX_CHERNOFF_N
        raw["parameters"]["n"] += 1
        with pytest.raises(SizeLimitError, match=r"\$\.parameters\.n: "):
            parse_config(raw)

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"],
        ["scale", "{cfg}", "--n-list", "10", "20", str(MAX_SEQUENCE_N + 1)],
    ], ids=["run", "scale"])
    @pytest.mark.parametrize("n", [MAX_SEQUENCE_N + 1, 10**400], ids=["cap", "huge"])
    @pytest.mark.parametrize("experiment", ["gauss_sum", "lis"])
    def test_oversized_sequence_refused_before_allocating(self, tmp_path, capsys,
                                                          monkeypatch, argv, n, experiment):
        def allocate(*args):
            raise AssertionError("a replicate stream was built before the size check")

        monkeypatch.setattr(runner, "restream", allocate)
        monkeypatch.setitem(experiments.REPLICATE_FNS, experiment, allocate)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": experiment, "replicates": 100,
            "parameters": {"n": 10 if argv[0] == "scale" else n}}))
        tracemalloc.start()
        try:
            code = cli.main([arg.format(cfg=cfg) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert f"$.parameters.n: above MAX_SEQUENCE_N = {MAX_SEQUENCE_N}" in err
        assert peak < 10**6

    @pytest.mark.parametrize("experiment", ["gauss_sum", "lis"])
    def test_sequence_n_cap_is_inclusive(self, experiment):
        raw = {"schema_version": 1, "experiment": experiment, "replicates": 1,
               "parameters": {"n": MAX_SEQUENCE_N}}
        assert parse_config(raw).parameters["n"] == MAX_SEQUENCE_N
        raw["parameters"]["n"] += 1
        with pytest.raises(SizeLimitError, match=r"\$\.parameters\.n: "):
            parse_config(raw)

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"],
        ["scale", "{cfg}", "--n-list", "10", "20", "{n}"],
    ], ids=["run", "scale"])
    @pytest.mark.parametrize("n", [MAX_CHROMATIC_N + 1, 10**400], ids=["cap", "huge"])
    @pytest.mark.parametrize("p_spec", [
        {"kind": "uniform", "p": 0.5},
        {"kind": "two_block", "p_in": 0.5, "p_out": 0.1, "split": 0.5},
    ], ids=["uniform", "two_block"])
    def test_oversized_chromatic_refused_before_allocating(self, tmp_path, capsys,
                                                           monkeypatch, argv, n, p_spec):
        def full(shape, *args, **kwargs):
            assert np.prod(shape) <= MAX_CHROMATIC_N**2, \
                "an n x n matrix was built before the size check"
            return real_full(shape, *args, **kwargs)

        def replicate(*args):
            raise AssertionError("a replicate ran before the size check")

        real_full = np.full
        monkeypatch.setattr(np, "full", full)
        monkeypatch.setitem(experiments.REPLICATE_FNS, "chromatic", replicate)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "chromatic", "replicates": 100,
            "parameters": {"n": 10 if argv[0] == "scale" else n, "p_spec": p_spec}}))
        tracemalloc.start()
        try:
            code = cli.main([arg.format(cfg=cfg, n=n) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert f"$.parameters.n: above MAX_CHROMATIC_N = {MAX_CHROMATIC_N}" in err
        assert peak < 10**6

    def test_boolean_found_in_a_matrix_at_the_cap(self):
        n = MAX_CHROMATIC_N
        rows = []
        for i in range(n):
            row = [0.25] * n
            row[i] = 0.0
            rows.append(row)
        raw = {"schema_version": 1, "experiment": "chromatic", "replicates": 1,
               "parameters": {"n": n, "p_spec": {"kind": "matrix", "p": rows}}}
        assert parse_config(raw).parameters["P"].n == n
        rows[-1][0] = True
        with pytest.raises(ConfigError, match=rf"\$\.parameters\.p_spec\.p\[{n - 1}\]\[0\]: "
                                              rf"must be a finite number"):
            parse_config(raw)

    def test_chromatic_n_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_CHROMATIC_N", 3)
        raw = {"schema_version": 1, "experiment": "chromatic", "replicates": 1,
               "parameters": {"n": 3}}
        assert parse_config(raw).parameters["P"].n == 3
        raw["parameters"]["n"] = 4
        with pytest.raises(SizeLimitError, match=r"\$\.parameters\.n: above MAX_CHROMATIC_N"):
            parse_config(raw)

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"],
        ["scale", "{cfg}", "--n-list", "10", "20", "{n}"],
    ], ids=["run", "scale"])
    @pytest.mark.parametrize("gate_samples", [0, 2000])
    def test_oversized_jl_gate_refused_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                      argv, gate_samples):
        samples = max(100, gate_samples)
        n = MAX_JL_GATE_ENTRIES // samples + 1
        gated = []
        real_gate = experiments.check_jl_hypotheses

        def gate(family, n, k, samples, rng):
            gated.append(n)
            return real_gate(family, n, k, samples, rng)

        monkeypatch.setattr(experiments, "check_jl_hypotheses", gate)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "jl", "replicates": 100,
            "parameters": {"n": 10 if argv[0] == "scale" else n, "k": 2,
                           "gate_samples": gate_samples}}))
        tracemalloc.start()
        try:
            code = cli.main([arg.format(cfg=cfg, n=n) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert (f"$.parameters.n: n * max(100, gate_samples) = {n * samples} is above "
                f"MAX_JL_GATE_ENTRIES = {MAX_JL_GATE_ENTRIES}") in err
        # scale validates every size before it gates any, so the gates of
        # the smaller sizes do not run either
        assert gated == []
        assert peak < 10**6

    @pytest.mark.parametrize("gate_samples, n", [(0, 5), (150, 3)])
    def test_jl_gate_cap_is_inclusive(self, monkeypatch, gate_samples, n):
        monkeypatch.setattr(config, "MAX_JL_GATE_ENTRIES", 500)
        raw = {"schema_version": 1, "experiment": "jl", "replicates": 1,
               "parameters": {"n": n, "k": 1, "gate_samples": gate_samples}}
        assert parse_config(raw).parameters["gate_samples"] == max(100, gate_samples)
        raw["parameters"]["n"] += 1
        with pytest.raises(SizeLimitError, match=r"\$\.parameters\.n: n \* max"):
            parse_config(raw)

    @pytest.mark.parametrize("argv", [
        ["--n", str(MAX_CURVE_ORDER + 2)],
        ["--n", "10", "--m-max", str(MAX_CURVE_ORDER + 2)],
    ])
    def test_oversized_curve_refused_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code = cli.main(["bound", "--method", "theorem1-closed", *argv, "--t", "5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert f"MAX_CURVE_ORDER = {MAX_CURVE_ORDER}" in capsys.readouterr().err
        assert peak < 10**6

    @pytest.mark.parametrize("m_max", [2896, MAX_CURVE_ORDER])
    def test_oversized_recursion_refused_before_allocating(self, tmp_path, capsys, m_max):
        # the lowest order past the term-matrix cap, and the highest order
        # any curve takes, on a profile that lists order 2 only
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"n": 2, "M": {"2": 1.0}}))
        tracemalloc.start()
        try:
            code = cli.main(["bound", "--method", "theorem1-recursion", "--profile",
                             str(profile), "--m-max", str(m_max), "--t", "5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        assert f"MAX_RECURSION_MATRIX_BYTES = {MAX_RECURSION_MATRIX_BYTES}" in err
        assert peak < 10**6

    def test_expected_points_cap_is_inclusive(self):
        raw = {"schema_version": 1, "experiment": "mwst", "replicates": 1,
               "parameters": {"n_cells": 100, "count_dist": {
                   "kind": "poisson", "mean": MAX_EXPECTED_POINTS / 100}}}
        parse_config(raw)
        raw["parameters"]["count_dist"]["mean"] *= 1 + 1e-9
        with pytest.raises(SizeLimitError, match=r"\$\.parameters\.count_dist: "):
            parse_config(raw)

    def test_bound_subcommand(self, capsys):
        code = cli.main(["bound", "--method", "general-chernoff",
                         "--nu", "4", "--t", "120"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_used"] == 6
        assert payload["tail_probability"] == pytest.approx(0.008, rel=1e-12)
        assert payload["method"] == "GeneralChernoff"

    def test_bound_with_underflowed_tail_is_valid_json(self):
        # Markov's p underflows to 0.0 here; the order is still the one
        # with the least log p
        code, stdout, err = run_cli("bound", "--method", "chernoff-corollary",
                                    "--n", "100000", "--sigma2", "3", "--t", "290000")
        assert code == 0, err
        assert "Traceback" not in err
        payload = strict_json(stdout)
        assert payload["tail_probability"] == 0.0
        assert payload["m_used"] == 2148

    def test_run_past_n_nu_has_a_bound(self, tmp_path):
        # past t = n*nu = 2 the corollary curve still bounds the tail, from
        # order 2: a number at every grid point, never null
        cfg = tmp_path / "chernoff.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "chernoff",
                                   "replicates": 200, "base_seed": 1,
                                   "parameters": {"n": 4, "nu": 0.5}}))
        code, stdout, err = run_cli("run", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert code == 0, err
        payload = strict_json(stdout)
        assert any(t > 2 for t in payload["t_grid"])
        assert all(isinstance(b, float) and 0 < b <= 1 for b in payload["bound"])
        assert all(payload["verdicts"])

    @pytest.mark.parametrize("argv", [
        ["--method", "general-chernoff", "--nu", "1", "--t", "1e200"],
        ["--method", "chernoff-corollary", "--n", "10", "--sigma2", "1e199", "--t", "1e200"],
    ], ids=["general", "corollary"])
    def test_bound_at_overflowing_t_squared(self, argv):
        # t*t overflows a double, but the curves never square t: the bound
        # comes from the highest order a curve holds
        code, stdout, err = run_cli("bound", *argv)
        assert code == 0, err
        payload = strict_json(stdout)
        assert payload["m_used"] == MAX_CURVE_ORDER
        assert payload["tail_probability"] == 0.0

    def test_oversized_main_curve_refused_before_evaluating(self, tmp_path, monkeypatch):
        def spy(profile, m):
            raise AssertionError("main_theorem_bound ran before the size check")

        monkeypatch.setattr(bounds, "main_theorem_bound", spy)
        profile = tmp_path / "typ.json"
        profile.write_text(json.dumps({"n": 2, "M": {"2": 4.0}, "L": {"2": 1.0},
                                       "delta": {"2": 0.01}}))
        code, _, err = run_cli("bound", "--method", "main", "--profile", str(profile),
                               "--m-max", "724", "--t", "5")
        assert code == 4
        assert "Traceback" not in err
        assert f"MAX_MAIN_CURVE_TERMS = {MAX_MAIN_CURVE_TERMS}" in err

    def test_bound_with_profile_file(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"n": 6, "M": {"2": 1.0, "4": 1.0}}))
        code = cli.main(["bound", "--method", "theorem1-recursion",
                         "--profile", str(profile), "--t", "12"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "Theorem1Recursion"
        assert 0 < payload["tail_probability"] <= 1

    def test_bound_main_theorem_profile(self, tmp_path, capsys):
        profile = tmp_path / "typ.json"
        profile.write_text(json.dumps({
            "n": 6, "M": {"2": 4.0}, "L": {"2": 1.0}, "delta": {"2": 0.01},
        }))
        code = cli.main(["bound", "--method", "main",
                         "--profile", str(profile), "--t", "30"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "MainTheorem"

    def test_bound_profile_stops_at_n(self, tmp_path, capsys):
        # Without --m-max the command stops the recursion at n, as run and
        # compare_bound do; the profile's highest order would give m 8,
        # p 0.00416.
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"n": 4, "M": {"2": 1, "4": 3, "6": 15, "8": 105}}))
        assert cli.main(["bound", "--method", "theorem1-recursion",
                         "--profile", str(profile), "--t", "12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_used"] == 4
        assert payload["tail_probability"] == 0.024079861111111107

    @pytest.mark.parametrize("method, profile", [
        ("theorem1-recursion", {"n": 10, "M": {"2": 1, "4": 3, "6": 15, "8": 105}}),
        ("main", {"n": 10, "M": {"2": 1, "4": 3, "6": 15, "8": 105},
                  "L": {"2": 0.5, "4": 2, "6": 9, "8": 50},
                  "delta": {"2": 0.01, "4": 0.02, "6": 0.05, "8": 0.1}}),
        # orders above n: both stop at n
        ("theorem1-recursion", {"n": 4, "M": {"2": 1, "4": 3, "6": 15, "8": 105}}),
    ])
    def test_bound_command_matches_compare_bound(self, tmp_path, capsys, method, profile):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        records = records_of([i % 11 for i in range(200)])
        summary = compare_bound(records, None,
                                {"kind": "profile", "profile": config.load_profile(str(path))})
        for j in (0, 7, 19):
            t = float(summary.t_grid[j])
            assert cli.main(["bound", "--method", method, "--profile", str(path),
                             "--t", repr(t)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["tail_probability"] == summary.bound[j]

    def test_scale_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "gauss_sum", "replicates": 200,
            "base_seed": 5, "parameters": {"n": 50},
        }))
        code = cli.main(["scale", str(cfg), "--n-list", "100", "400", "900"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert len(payload["rows"]) == 3
        assert 0.3 < payload["slope"] < 0.7


    def test_scale_runs_the_hypothesis_gate(self, tmp_path, monkeypatch):
        # the config test_hypothesis_violation_exit_code refuses from run
        ran = []
        monkeypatch.setitem(experiments.REPLICATE_FNS, "jl",
                            lambda params, rng: ran.append(1) or (1.0, {}))
        cfg = tmp_path / "jl.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "jl", "replicates": 5,
            "base_seed": 0,
            "parameters": {"n": 200, "k": 60, "gate_samples": 1500,
                           "family": {"kind": "radial_beta", "scale": 4.0,
                                      "a": 0.5, "b": 0.5}},
        }))
        code, stdout, err = run_cli("scale", str(cfg), "--n-list", "200", "400", "800")
        assert code == 3
        assert "projection hypotheses violated" in err and "Traceback" not in err
        assert stdout == ""
        assert ran == []

    @pytest.mark.parametrize("replicates, n_list, named", [
        (1, ["10", "20", "40"], "$.replicates: must be >= 2"),
        (5, ["10", "10", "20"], "--n-list: need at least 3 distinct sizes"),
        (5, ["10", "10", "10"], "--n-list: need at least 3 distinct sizes"),
    ])
    def test_scale_refuses_what_has_no_slope(self, tmp_path, monkeypatch, replicates,
                                             n_list, named):
        # one replicate has no sd and repeated sizes no slope: both printed NaN
        ran = []
        monkeypatch.setitem(experiments.REPLICATE_FNS, "lis",
                            lambda params, rng: ran.append(1) or (rng.random(), {}))
        cfg = tmp_path / "lis.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "lis",
                                   "replicates": replicates, "parameters": {"n": 10}}))
        code, stdout, err = run_cli("scale", str(cfg), "--n-list", *n_list)
        assert code == 2
        assert named in err and "Traceback" not in err
        assert stdout == "" and "NaN" not in err
        assert ran == []
        # the patched function is what a study that has a slope calls
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "lis",
                                   "replicates": 2, "parameters": {"n": 10}}))
        assert run_cli("scale", str(cfg), "--n-list", "10", "20", "40")[0] == 0
        assert len(ran) == 6

    def test_oversized_profile_refused_before_allocating(self, tmp_path, monkeypatch):
        def expand(*args):
            raise AssertionError("a profile was expanded before the size check")

        monkeypatch.setattr(config, "_values_map", expand)
        profile = tmp_path / "big.json"
        profile.write_text(json.dumps({"n": 10**9, "M": {"2": 1.0, "4": 3.0}}))
        tracemalloc.start()
        try:
            code, stdout, err = run_cli("bound", "--method", "theorem1-recursion",
                                        "--profile", str(profile), "--t", "5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "Traceback" not in err and stdout == ""
        assert f"$.n: n times the orders of M, L and delta is {2 * 10**9}" in err
        assert f"MAX_PROFILE_ENTRIES = {config.MAX_PROFILE_ENTRIES}" in err
        assert peak < 10**6

    def test_profile_entry_cap_is_inclusive(self, tmp_path, monkeypatch):
        # 2 variables x 2 orders in each of M, L and delta: 12 entries
        monkeypatch.setattr(config, "MAX_PROFILE_ENTRIES", 12)
        profile = tmp_path / "typ.json"
        raw = {"n": 2, "M": {"2": 4.0, "4": 40.0}, "L": {"2": 1.0, "4": 9.0},
               "delta": {"2": 0.01, "4": 0.02}}
        profile.write_text(json.dumps(raw))
        assert config.load_profile(str(profile)).base.n == 2
        profile.write_text(json.dumps({**raw, "n": 3}))
        with pytest.raises(SizeLimitError, match=r"\$\.n: .* is 18, above "):
            config.load_profile(str(profile))

    def test_scale_out_checked_before_first_replicate(self, tmp_path, capsys,
                                                       monkeypatch):
        from tailbounds.harness import experiments

        calls = []

        def counted(params, rng):
            calls.append(1)
            return rng.random(), {}

        monkeypatch.setitem(experiments.REPLICATE_FNS, "lis", counted)
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "lis", "replicates": 200,
            "base_seed": 5, "parameters": {"n": 50},
        }))
        bad = tmp_path / "missing" / "s.json"
        code = cli.main(["scale", str(cfg), "--n-list", "100", "400", "900",
                         "--out", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(bad) in captured.err and captured.out == ""
        assert calls == []
        # the patched function is what a study with a writable --out calls
        good = tmp_path / "s.json"
        assert cli.main(["scale", str(cfg), "--n-list", "100", "400", "900",
                         "--out", str(good)]) == 0
        capsys.readouterr()
        assert len(calls) == 600

    # (experiment, parameters, replicates, extra argv, exit code, message)
    @pytest.mark.parametrize("experiment, parameters, replicates, argv, code, named", [
        ("lis", {"n": 10}, 5, ["--n-list", "10", "10", "20"], 2,
         "--n-list: need at least 3 distinct sizes"),
        ("lis", {"n": 10}, 1, ["--n-list", "10", "20", "40"], 2, "$.replicates: must be >= 2"),
        ("lis", {"n": 10}, 5, ["--n-list", "10", "20", "40", "--workers", "0"], 2,
         "--workers: must be >= 1"),
        ("lis", {"n": 10}, 5,
         ["--n-list", "10", "20", "40", "--workers", str(runner.MAX_WORKERS + 1)], 4,
         f"--workers: {runner.MAX_WORKERS + 1} is above MAX_WORKERS"),
        ("lis", {"n": 10}, 5, ["--n-list", "10", "20", str(MAX_SEQUENCE_N + 1)], 4,
         "$.parameters.n: above MAX_SEQUENCE_N"),
        ("tsp", {"n_cells": 16}, 5, ["--n-list", "16", "20", "36"], 2,
         "$.parameters.n_cells: must be a perfect square"),
        ("jl", {"n": 200, "k": 60, "gate_samples": 1500,
                "family": {"kind": "radial_beta", "scale": 4.0, "a": 0.5, "b": 0.5}}, 5,
         ["--n-list", "200", "400", "800"], 3, "projection hypotheses violated"),
    ], ids=["sizes", "replicates", "workers", "workers-cap", "size-cap", "size", "gate"])
    def test_scale_refusal_keeps_out(self, tmp_path, monkeypatch, experiment, parameters,
                                     replicates, argv, code, named):
        ran = []
        monkeypatch.setitem(experiments.REPLICATE_FNS, experiment,
                            lambda params, rng: ran.append(1) or (1.0, {}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": experiment,
                                   "replicates": replicates, "parameters": parameters}))
        out = tmp_path / "study.json"
        out.write_bytes(b'{"kept": true}\n')
        got, stdout, err = run_cli("scale", str(cfg), *argv, "--out", str(out))
        assert got == code
        assert named in err and "Traceback" not in err and stdout == ""
        assert out.read_bytes() == b'{"kept": true}\n'
        assert ran == []

    @pytest.mark.parametrize("command", ["run", "scale"])
    @pytest.mark.parametrize("replicates", [config.MAX_REPLICATES,
                                            config.MAX_REPLICATES + 1, 10**400],
                             ids=["cap", "cap+1", "huge"])
    def test_replicates_cap(self, tmp_path, monkeypatch, command, replicates):
        # a spy in place of run_replicates: the cap itself is never run
        seen = []

        def spy(config, workers=1, out=None):
            seen.append(config.replicates)
            return records_of([0.0, 1.0])

        monkeypatch.setattr(runner, "run_replicates", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "lis",
                                   "replicates": replicates, "parameters": {"n": 10}}))
        out = tmp_path / "out"
        argv = ["--n-list", "10", "20", "40"] if command == "scale" else []
        tracemalloc.start()
        try:
            code, stdout, err = run_cli(command, str(cfg), *argv, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "Traceback" not in err
        if replicates <= config.MAX_REPLICATES:
            assert code == 0
            assert seen == [replicates] * (3 if command == "scale" else 1)
        else:
            assert code == 4 and stdout == ""
            assert f"size limit: $.replicates: above MAX_REPLICATES = " \
                   f"{config.MAX_REPLICATES}" in err
            assert seen == [] and not out.exists()
            assert peak < 10**6

    @pytest.mark.parametrize("parameters, named", [
        ({"n_cells": 1001**2}, "$.parameters.n_cells: above MAX_CELLS = 1000000"),
        ({"n_cells": 4, "count_dist": {"kind": "deterministic", "k": 10**400}},
         "$.parameters.count_dist: n_cells * E[count] is above MAX_EXPECTED_POINTS"),
        ({"n_cells": 4, "count_dist": {"kind": "two_point", "p0": 0.5, "value": 10**400}},
         "$.parameters.count_dist: n_cells * E[count] is above MAX_EXPECTED_POINTS"),
    ])
    def test_grid_size_refused_at_parse(self, parameters, named):
        with pytest.raises(SizeLimitError) as refused:
            make_config(experiment="tsp", parameters=parameters)
        assert named in str(refused.value)

    def test_cell_and_item_caps_are_inclusive(self):
        make_config(experiment="mwst", parameters={
            "n_cells": config.MAX_CELLS, "count_dist": {"kind": "deterministic", "k": 0}})
        binpack = {"dist": {"kind": "lower_bound", "k": 5}, "n_items": config.MAX_ITEMS}
        make_config(experiment="binpack", parameters=binpack)
        with pytest.raises(SizeLimitError, match=r"\$\.parameters\.n_items: above MAX_ITEMS"):
            make_config(experiment="binpack", parameters={**binpack,
                                                          "n_items": config.MAX_ITEMS + 1})

    @pytest.mark.parametrize("n, refused", [(graphs.CHROMATIC_EXACT_CAP, False),
                                            (graphs.CHROMATIC_EXACT_CAP + 1, True)])
    def test_exact_coloring_cap_checked_at_parse(self, n, refused):
        parameters = {"n": n, "method": "exact"}
        if refused:
            with pytest.raises(SizeLimitError, match=rf"\$\.parameters\.n: exact coloring "
                                                     rf"of n = {n} vertices is above "
                                                     r"CHROMATIC_EXACT_CAP = 30"):
                make_config(experiment="chromatic", parameters=parameters)
        else:
            assert make_config(experiment="chromatic",
                               parameters=parameters).parameters["method"] == "exact"
        # auto takes the exact solver at and below the cap, greedy above it
        auto = make_config(experiment="chromatic", parameters={"n": n}).parameters
        assert auto["method"] == ("greedy" if refused else "exact")

    @pytest.mark.parametrize("output", [5, True, ["r.csv"]])
    def test_output_must_be_a_string(self, output):
        with pytest.raises(ConfigError, match=r"\$\.output: must be a string"):
            make_config(output=output)

    def test_report_out_checked_before_summary(self, tmp_path, capsys, monkeypatch):
        records = tmp_path / "r.csv"
        run_experiment(make_config(replicates=20), out=str(records))
        summarized = []
        monkeypatch.setattr(cli, "summarize",
                            lambda recs: summarized.append(recs) or summarize(recs))
        bad = tmp_path / "missing" / "s.json"
        code = cli.main(["report", str(records), "--out", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(bad) in captured.err and captured.out == ""
        assert summarized == []


def run_cli(*argv):
    """cli.main in this interpreter: (exit code, stdout, stderr).  An
    argparse error exits through SystemExit, whose code is returned; any
    other exception escapes main and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """json.loads that refuses the NaN and Infinity constants, which are not
    JSON."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["bound", "run", "scale", "report"])
def test_cli_in_a_fresh_interpreter(tmp_path, command):
    # python -m tailbounds.harness.cli gives what cli.main gives in process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "experiment": "lis", "replicates": 5,
                               "base_seed": 9, "parameters": {"n": 20}}))
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv(
        [ExperimentRecord("lis", i, i, "h", float(i % 3), {}) for i in range(5)]))
    argv = {
        "bound": ["bound", "--method", "general-chernoff", "--nu", "100", "--t", "50"],
        "run": ["run", str(cfg), "--out", str(tmp_path / "out.csv")],
        "scale": ["scale", str(cfg), "--n-list", "10", "20", "40"],
        "report": ["report", str(records)],
    }[command]
    fresh = run_python("-m", "tailbounds.harness.cli", *argv)
    assert fresh[0] == 0, fresh[2]
    assert fresh == run_cli(*argv)
    strict_json(fresh[1])


def test_benchmark_trace_names_resolve(monkeypatch):
    # perfbench/spans.py looks up each TARGETS function by name and replaces
    # runner.REPLICATE_FNS, so a rename or deletion here would break the
    # benchmark's --trace 1; spans.py is imported, not installed, and no
    # bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, func_name, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), func_name, None)), \
            f"{module_name}.{func_name}"
    assert sorted(runner.REPLICATE_FNS) == sorted(config._VALIDATORS)


def test_benchmark_setup_runs(monkeypatch):
    # every perfbench workload's untimed setup, at the small size, against
    # src/: bound-curve builds its profiles there, so a change to the
    # profile builders that it calls would break the benchmark before its
    # clock starts; workloads.py is imported, not installed, and no
    # bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    program = types.SimpleNamespace(config=config, runner=runner, bounds=bounds)
    built = {name: cls(workloads.DEFAULT_SEED, "small")
             for name, cls in workloads.WORKLOADS.items()}
    for name, workload in built.items():
        workload.setup(program)
        assert 0 < workload.work <= workload.attempted, name
    profiles = [source["profile"] for source in built["bound-curve"].sources.values()]
    assert [type(p) for p in profiles] == [bounds.MomentProfile, bounds.TypicalProfile]
    moment, typical = profiles
    assert moment.n == typical.base.n == 10


def test_package_imports_no_scipy():
    # scipy is a test oracle only; importing scipy.special alone would
    # double the start-up time and memory of every tailbounds process
    code, stdout, err = run_python("-c", (
        "import sys, tailbounds, tailbounds.harness.cli, tailbounds.harness.runner, "
        "tailbounds.harness.config\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"))
    assert code == 0, err
    assert stdout.strip() == "[]"


# Sizes for --n and --m-max: invalid, small, the recursion's first order
# past its matrix cap, past MAX_CURVE_ORDER and every other cap, one whose
# closed-form moment bound overflows a double, and one no double holds.
_FUZZ_SIZES = st.sampled_from([-2, -1, 0, 1, 2, 3, 4, 16, 1001, 2896, MAX_CURVE_ORDER + 2,
                               2**63, 10**308, 10**400])


@pytest.fixture(scope="module")
def fuzz_profiles(tmp_path_factory):
    """Two typical profiles through order 16, read by both profile methods:
    one with positive bounds, and one whose M and L are all 0, so that every
    moment bound it gives is 0 (log -inf)."""
    folder = tmp_path_factory.mktemp("fuzz")
    orders = [str(o) for o in range(2, 17, 2)]
    profiles = {"typ": {"n": 3, "M": {o: 2.0**int(o) for o in orders},
                        "L": {o: 1.5**int(o) for o in orders},
                        "delta": {o: 0.01 for o in orders}},
                "zero": {"n": 3, "M": {o: 0.0 for o in orders},
                         "L": {o: 0.0 for o in orders},
                         "delta": {o: float(int(o) % 4 == 0) for o in orders}}}
    for name, profile in profiles.items():
        (folder / f"{name}.json").write_text(json.dumps(profile))
    return [str(folder / f"{name}.json") for name in profiles]


# Small valid configs that the config fuzz mutates, each with the --n-list
# of its scaling study (None where the config fixes its own size).
FUZZ_CONFIGS = [
    ({"experiment": "lis", "parameters": {"n": 8}}, ["4", "5", "6"]),
    ({"experiment": "gauss_sum", "parameters": {"n": 8}}, ["4", "5", "6"]),
    ({"experiment": "chernoff", "parameters": {"n": 8, "nu": 0.3}}, ["4", "5", "6"]),
    ({"experiment": "chernoff", "parameters": {
        "n": 8, "nus": {"kind": "alternating", "values": [0.2, 0.7]}}}, ["4", "5", "6"]),
    ({"experiment": "tsp", "parameters": {
        "n_cells": 4, "count_dist": {"kind": "poisson", "mean": 1.0},
        "placement": "uniform_in_cell"}}, ["4", "9", "16"]),
    ({"experiment": "tsp", "parameters": {
        "n_cells": 4, "count_dist": {"kind": "two_point", "p0": 0.5, "value": 2}}},
     ["4", "9", "16"]),
    ({"experiment": "mwst", "parameters": {
        "n_cells": 4, "count_dist": {"kind": "zeta", "s": 6.0, "cap": 50, "p0": 0.35},
        "placement": "corner_bunch"}}, ["4", "9", "16"]),
    ({"experiment": "chromatic", "parameters": {
        "n": 5, "p_spec": {"kind": "two_block", "p_in": 0.8, "p_out": 0.1, "split": 0.5},
        "method": "exact"}}, ["4", "5", "6"]),
    ({"experiment": "chromatic", "parameters": {
        "n": 2, "p_spec": {"kind": "matrix", "p": [[0, 0.5], [0.5, 0]]}}}, None),
    ({"experiment": "jl", "parameters": {
        "n": 6, "k": 2, "gate_samples": 100,
        "family": {"kind": "radial_beta", "scale": 1.2, "a": 8.0, "b": 2.0}}},
     ["4", "5", "6"]),
    ({"experiment": "binpack", "parameters": {
        "dist": {"kind": "lower_bound", "k": 5}, "n_items": 20}},
     ["4", "5", "6"]),
    ({"experiment": "binpack", "parameters": {
        "dist": {"kind": "explicit", "sizes": [0.5, 0.3], "probs": [0.4, 0.6]},
        "n_items": 20}}, ["4", "5", "6"]),
]
# Wrong types, boundaries, values past every cap, and values no float holds.
FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 0.5, -0.5, 1e308, 2**63, 10**400, -10**400,
               "x", "", [], [1], {}, {"kind": "x"}, math.nan, math.inf]


def _fuzz_targets(node, path):
    """(path, container, key) of every value under node, node itself excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        sub = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        yield sub, node, key
        yield from _fuzz_targets(value, sub)


def _related(path, named):
    """Whether named is path, one of its ancestors below $, or a descendant."""
    def under(a, b):
        return a == b or (a.startswith(b) and a[len(b)] in ".[")
    return named != "$" and (under(path, named) or under(named, path))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz")


class TestCliBadInput:
    """Bad input ends with exit 2 and a message naming the flag or field,
    never with a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["--method", "chernoff-corollary", "--t", "5"], "--n"),
        (["--method", "chernoff-corollary", "--t", "5", "--n", "100"], "--sigma2"),
        (["--method", "general-chernoff", "--t", "5"], "--nu"),
        (["--method", "theorem1-closed", "--t", "5"], "--n"),
        (["--method", "theorem1-recursion", "--t", "5"], "--profile"),
        (["--method", "main", "--t", "5"], "--profile"),
        # InvalidArgumentError from the bound itself.
        (["--method", "general-chernoff", "--nu", "100", "--t", "-1"], "t must be > 0"),
        (["--method", "chernoff-corollary", "--n", "10", "--sigma2", "0",
          "--t", "5"], "sigma2 must be > 0"),
        # A set flag the method does not read; the profile is not opened.
        (["--method", "chernoff-corollary", "--n", "100", "--sigma2", "1", "--t", "5",
          "--m-max", "8"], "--m-max: not read by --method chernoff-corollary"),
        (["--method", "general-chernoff", "--nu", "100", "--t", "5", "--m-max", "8"],
         "--m-max: not read by --method general-chernoff"),
        (["--method", "general-chernoff", "--nu", "100", "--t", "5", "--profile", "p.json"],
         "--profile: not read by --method general-chernoff"),
        (["--method", "main", "--profile", "p.json", "--t", "5", "--n", "10"],
         "--n: not read by --method main"),
        (["--method", "theorem1-recursion", "--profile", "p.json", "--t", "5",
          "--sigma2", "1"], "--sigma2: not read by --method theorem1-recursion"),
        (["--method", "theorem1-closed", "--n", "10", "--t", "5", "--nu", "1"],
         "--nu: not read by --method theorem1-closed"),
        # An --n no double holds, and one whose closed-form bound overflows.
        (["--method", "chernoff-corollary", "--n", str(10**400), "--sigma2", "1", "--t", "5"],
         "argument --n: must be an integer a float can hold"),
        (["--method", "theorem1-closed", "--n", str(10**400), "--m-max", "4", "--t", "5"],
         "argument --n: must be an integer a float can hold"),
        (["--method", "theorem1-closed", "--n", str(10**308), "--m-max", "4", "--t", "5"],
         "the log moment bound overflows a double"),
        # argparse lists the choices in the METHOD_OPTIONS order
        (["--method", "bogus", "--t", "5"],
         "argument --method: invalid choice: 'bogus' (choose from 'theorem1-closed', "
         "'theorem1-recursion', 'main', 'chernoff-corollary', 'general-chernoff')\n"),
    ])
    def test_bound_arguments(self, argv, named):
        code, _, err = run_cli("bound", *argv)
        assert code == 2
        assert "Traceback" not in err
        assert named in err

    @given(method=st.sampled_from(sorted(cli.METHOD_OPTIONS)),
           t=st.floats(allow_nan=False, allow_infinity=False),
           sigma2=st.floats(allow_nan=False, allow_infinity=False),
           nu=st.floats(allow_nan=False, allow_infinity=False),
           n=_FUZZ_SIZES, m_max=st.none() | _FUZZ_SIZES)
    @example(method="general-chernoff", t=1e200, sigma2=1.0, nu=1.0, n=10, m_max=None)
    @example(method="chernoff-corollary", t=1e200, sigma2=1e199, nu=1.0, n=10, m_max=None)
    @example(method="general-chernoff", t=1.3e154, sigma2=1.0, nu=1.0, n=10, m_max=None)
    @example(method="chernoff-corollary", t=4e153, sigma2=1.7976931348623157e308, nu=1.0,
             n=4, m_max=None)
    @example(method="main", t=1.0, sigma2=1.0, nu=1.0, n=3, m_max=None)
    @example(method="theorem1-recursion", t=1.0, sigma2=1.0, nu=1.0, n=3, m_max=4)
    @settings(max_examples=300, deadline=None)
    def test_bound_argv_fuzz(self, fuzz_profiles, method, t, sigma2, nu, n, m_max):
        # Every finite float for --t, --sigma2 and --nu, and small, boundary
        # and past-cap sizes: a documented exit code, no traceback, and
        # strict JSON on success, on each fuzz profile a method reads.
        reads = cli.METHOD_OPTIONS[method]
        for profile in fuzz_profiles if "profile" in reads else [None]:
            values = {"t": repr(t), "sigma2": repr(sigma2), "nu": repr(nu), "n": str(n),
                      "profile": profile, "m_max": None if m_max is None else str(m_max)}
            argv = ["bound", "--method", method, f"--t={values['t']}"]
            for dest in reads:
                if values[dest] is not None:
                    argv.append(f"--{dest.replace('_', '-')}={values[dest]}")
            code, stdout, err = run_cli(*argv)
            assert code in (0, 2, 3, 4), (argv, code, err)
            assert "Traceback" not in err
            if code == 0:
                strict_json(stdout)
            else:
                assert err.strip(), argv
            # of the fuzzed values argparse refuses only an --n no float holds,
            # and it names that flag
            refused = "n" in reads and abs(n) > sys.float_info.max
            assert ("error: argument " in err) == refused, (argv, err)
            if refused:
                assert code == 2 and "error: argument --n: " in err, (argv, err)

    @pytest.mark.parametrize("command", ["run", "scale"])
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_config_fuzz(self, fuzz_dir, command, data):
        # One mutation of a small valid config (a value replaced, a key
        # removed or an unknown key added): a documented exit code, no
        # traceback, and a refusal names the mutated path, one of its
        # ancestors or a field inside it.
        base, n_list = data.draw(st.sampled_from(
            [c for c in FUZZ_CONFIGS if command == "run" or c[1] is not None]))
        raw = {"schema_version": 1, "replicates": 3, "base_seed": 7,
               **json.loads(json.dumps(base))}
        path, node, key = data.draw(st.sampled_from(list(_fuzz_targets(raw, "$"))))
        actions = ["replace", "remove"] + (["add"] if isinstance(node[key], dict) else [])
        action = data.draw(st.sampled_from(actions))
        if action == "replace":
            node[key] = data.draw(st.sampled_from(FUZZ_VALUES))
        elif action == "remove":
            del node[key]
        else:
            node[key]["zzz"] = 1
            path = f"{path}.zzz"
        cfg = fuzz_dir / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = [command, str(cfg), "--out", str(fuzz_dir / "out")]
        if command == "scale":
            argv[2:2] = ["--n-list", *n_list]
        code, _, err = run_cli(*argv)
        assert code in (0, 2, 3, 4), (raw, code, err)
        assert "Traceback" not in err
        if code != 0:
            named = [name.rstrip(".") for name in re.findall(r"\$[\w.\[\]]*", err)]
            assert any(_related(path, name) for name in named), (path, err)

    @pytest.mark.parametrize("argv, named", [
        (["--method", "general-chernoff", "--nu", "100", "--t", "inf"], "--t"),
        (["--method", "general-chernoff", "--nu", "100", "--t", "nan"], "--t"),
        (["--method", "general-chernoff", "--nu", "100", "--t", "x"], "--t"),
        (["--method", "general-chernoff", "--nu", "inf", "--t", "5"], "--nu"),
        (["--method", "chernoff-corollary", "--n", "100", "--sigma2=-inf", "--t", "5"],
         "--sigma2"),
    ])
    def test_non_finite_float_flag(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["bound", *argv])
        assert exit_.value.code == 2
        assert f"argument {named}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["theorem1-closed", "theorem1-recursion", "main"])
    def test_m_max_zero(self, tmp_path, method):
        profile = tmp_path / "typ.json"
        profile.write_text(json.dumps({"n": 6, "M": {"2": 4.0}, "L": {"2": 1.0},
                                       "delta": {"2": 0.01}}))
        source = ["--n", "6"] if method == "theorem1-closed" else ["--profile", str(profile)]
        code, _, err = run_cli("bound", "--method", method, *source, "--t", "5",
                               "--m-max", "0")
        assert code == 2
        assert "m_max must be an even integer >= 2, got 0" in err

    def test_incomplete_profile(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"n": 4, "M": {"2": 1.0}}))
        code, _, err = run_cli("bound", "--method", "theorem1-recursion",
                               "--profile", str(profile), "--t", "3", "--m-max", "4")
        assert code == 2
        assert "Traceback" not in err
        assert "order l=4" in err

    @pytest.mark.parametrize("key", ["M", "L", "delta"])
    def test_two_keys_for_one_order(self, tmp_path, key):
        # "2" and "02" both read as order 2: the second is refused, not
        # written over the first
        raw = {"n": 3, "M": {"2": 1.0, "4": 3.0}, "L": {"2": 0.5, "4": 1.0},
               "delta": {"2": 0.1, "4": 0.1}}
        raw[key]["02"] = raw[key]["2"]
        profile = tmp_path / "typ.json"
        profile.write_text(json.dumps(raw))
        code, stdout, err = run_cli("bound", "--method", "main", "--profile", str(profile),
                                    "--t", "5")
        assert code == 2 and stdout == ""
        assert "Traceback" not in err
        assert f"$.{key}.02: a second key for order 2" in err

    @pytest.mark.parametrize("typical, named", [
        ({"L": {"2": 0.5, "6": 1.0}, "delta": {"2": 0.1, "4": 0.1}}, "order 6"),
        ({"L": {"2": 0.5, "4": 1.0}, "delta": {"2": 0.1, "6": 0.1}}, "order 6"),
    ])
    def test_typical_profile_order_missing_from_m(self, tmp_path, capsys, typical, named):
        profile = tmp_path / "typ.json"
        profile.write_text(json.dumps({"n": 3, "M": {"2": 1.0, "4": 3.0}, **typical}))
        assert cli.main(["bound", "--method", "main", "--profile", str(profile),
                         "--t", "5"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize("count_dist, named", [
        ({"kind": "poisson", "mean": math.nan}, "$.parameters.count_dist.mean"),
        ({"kind": "poisson", "mean": -math.inf}, "$.parameters.count_dist.mean"),
        ({"kind": "zeta", "s": math.nan}, "$.parameters.count_dist.s"),
        ({"kind": "zeta", "s": math.inf}, "$.parameters.count_dist.s"),
        ({"kind": "poisson", "mean": 10**400}, "$.parameters.count_dist.mean"),
    ], ids=["poisson-nan", "poisson-minus-infinity", "zeta-nan", "zeta-infinity",
            "poisson-integer-above-float-range"])
    def test_non_finite_float_field(self, tmp_path, capsys, count_dist, named):
        # json writes and reads NaN and Infinity as floats, and 10**400 as an
        # integer that no float holds
        out = tmp_path / "records.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "mwst",
                                   "replicates": 2,
                                   "parameters": {"n_cells": 4, "count_dist": count_dist}}))
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{named}: must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["replicates", "base_seed"])
    def test_bool_config_field(self, tmp_path, field):
        raw = {"schema_version": 1, "experiment": "lis", "replicates": 5,
               "base_seed": 0, "parameters": {"n": 10}}
        raw[field] = True
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, _, err = run_cli("run", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert f"$.{field}" in err

    @pytest.mark.parametrize("experiment, parameters, named", [
        ("lis", {"n": True}, "$.parameters.n"),
        ("chernoff", {"n": 10, "nu": "x"}, "$.parameters.nu"),
        ("tsp", {"n_cells": 16, "max_passes": "x"}, "$.parameters.max_passes"),
        ("jl", {"n": 10, "k": 2, "gate_samples": "many"}, "$.parameters.gate_samples"),
        ("chromatic", {"n": 2, "p_spec": {"kind": "uniform", "p": "x"}},
         "$.parameters.p_spec.p"),
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix", "p": [[0, 0.5], [0.5]]}},
         "$.parameters.p_spec.p[1]: must be a list of n = 2 numbers"),
        ("binpack", {"dist": {"kind": "lower_bound", "k": 4}, "n_items": 10,
                     "maximal_only": "false"}, "$.parameters.maximal_only"),
        # No grid experiment has a pass cap to set
        ("mwst", {"n_cells": 16, "max_passes": 40}, "$.parameters.max_passes"),
        ("binpack", {"dist": {"kind": "explicit", "sizes": [0.5, 0.3],
                              "probs": [-0.4, 1.4]}, "n_items": 10},
         "$.parameters.dist: probabilities must be >= 0"),
        ("jl", {"n": 3, "k": 5}, "$.parameters.k: must be at most $.parameters.n = 3"),
        # A bad element of a list or of a matrix row is named by its index.
        ("binpack", {"dist": {"kind": "explicit", "sizes": [[], 0.3],
                              "probs": [0.4, 0.6]}, "n_items": 10},
         "$.parameters.dist.sizes[0]: must be a finite number"),
        ("binpack", {"dist": {"kind": "explicit", "sizes": [0.5, 0.3],
                              "probs": [0.4, math.nan]}, "n_items": 10},
         "$.parameters.dist.probs[1]: must be a finite number"),
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix", "p": [[0, []], [0.5, 0]]}},
         "$.parameters.p_spec.p[0][1]: must be a finite number"),
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix", "p": [[0, "x"], ["x", 0]]}},
         "$.parameters.p_spec.p[0][1]: must be a finite number"),
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix", "p": [[0, 0.5], 0.5]}},
         "$.parameters.p_spec.p[1]: must be a list of n = 2 numbers"),
        # A boolean is no probability, beside integers or floats alike.
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix", "p": [[0, True], [True, 0]]}},
         "$.parameters.p_spec.p[0][1]: must be a finite number"),
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix",
                                          "p": [[0.0, 0.5], [0.5, False]]}},
         "$.parameters.p_spec.p[1][1]: must be a finite number"),
        # NaN is no finite number, so it is named at its entry, not as
        # breaking symmetry.
        ("chromatic", {"n": 2, "p_spec": {"kind": "matrix",
                                          "p": [[0, math.nan], [math.nan, 0]]}},
         "$.parameters.p_spec.p[0][1]: must be a finite number"),
    ])
    def test_bad_parameter_field(self, tmp_path, experiment, parameters, named):
        out = tmp_path / "records.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": experiment,
                                   "replicates": 5, "parameters": parameters}))
        code, _, err = run_cli("run", str(cfg), "--out", str(out))
        assert code == 2
        assert "Traceback" not in err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, parameters, n_list, named", [
        # A 3 x 3 matrix cannot serve n = 6: every size is validated.
        ("chromatic", {"n": 3, "p_spec": {"kind": "matrix", "p": [
            [0, 0.5, 0.2], [0.5, 0, 0.9], [0.2, 0.9, 0]]}}, ["3", "6", "12"],
         "$.parameters.p_spec.p"),
        ("tsp", {"n_cells": 16}, ["16", "20", "36"], "$.parameters.n_cells"),
    ])
    def test_scale_validates_every_size(self, tmp_path, experiment, parameters, n_list,
                                        named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": experiment,
                                   "replicates": 5, "parameters": parameters}))
        code, stdout, err = run_cli("scale", str(cfg), "--n-list", *n_list)
        assert code == 2
        assert "Traceback" not in err
        assert named in err
        assert stdout == ""

    @pytest.mark.parametrize("text, named", [
        ("{bad", "$: invalid JSON"),
        ("[1, 2]", "$: profile file must be a JSON object"),
        ('{"n": "6", "M": {"2": 1.0}}', "$.n"),
        ('{"n": true, "M": {"2": 1.0}}', "$.n"),
        ('{"n": 6, "M": [1.0]}', "$.M"),
        ('{"n": 6, "M": {"2": "x"}}', "$.M.2"),
        ('{"n": 2, "M": {"2": [1.0, null]}}', "$.M.2[1]"),
        ('{"n": 4, "M": {"2": 1.0, "4": 3.0}, "m_max": 2, "Delta": {"2": 0.1}}',
         "$.Delta: unknown key"),
    ])
    def test_bad_profile_file(self, tmp_path, text, named):
        profile = tmp_path / "profile.json"
        profile.write_text(text)
        code, _, err = run_cli("bound", "--method", "theorem1-recursion",
                               "--profile", str(profile), "--t", "3")
        assert code == 2
        assert "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize("text, named", [
        ("", "line 1"),
        ("experiment,replicate,seed,param_hash,f\nlis,zero,1,h,1.0\n", "line 2"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1,h,1.0\nlis,1,2,h\n", "line 3"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1,h,one\n", "line 2"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1,h,nan\n", "line 2: f must be finite"),
        ("experiment,replicate,seed,param_hash,f\nlis,0,1,h,1.0\nlis,1,2,h,-inf\n",
         "line 3: f must be finite"),
    ], ids=["empty", "bad-replicate", "short-row", "bad-f", "nan-f", "inf-f"])
    def test_report_bad_records_file(self, tmp_path, text, named):
        records = tmp_path / "records.csv"
        records.write_text(text)
        code, _, err = run_cli("report", str(records))
        assert code == 2
        assert "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize("command", ["run", "scale", "report", "bound"])
    def test_input_that_is_not_utf8(self, tmp_path, command):
        # UTF-16 text starts with the bytes ff fe, which UTF-8 cannot decode
        cfg = json.dumps({"schema_version": 1, "experiment": "lis", "replicates": 5,
                          "parameters": {"n": 20}})
        text, argv = {
            "run": (cfg, ["run", "{path}"]),
            "scale": (cfg, ["scale", "{path}", "--n-list", "10", "20", "40"]),
            "report": ("experiment,replicate,seed,param_hash,f\nlis,0,1,h,1.0\n",
                       ["report", "{path}"]),
            "bound": ('{"n": 2, "M": {"2": 1.0}}',
                      ["bound", "--method", "theorem1-recursion", "--profile", "{path}",
                       "--t", "3"]),
        }[command]
        path = tmp_path / "input"
        path.write_bytes(text.encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        code, stdout, err = run_cli(*[arg.format(path=path) for arg in argv])
        assert code == 2
        assert "Traceback" not in err
        assert f"{path}: not UTF-8 text" in err
        assert stdout == ""

    @pytest.mark.parametrize("command", ["run", "scale"])
    @pytest.mark.parametrize("workers, code, message", [
        ("0", 2, "--workers: must be >= 1, got 0"),
        ("-2", 2, "--workers: must be >= 1, got -2"),
        (str(runner.MAX_WORKERS + 1),
         4, f"--workers: {runner.MAX_WORKERS + 1} is above MAX_WORKERS = {runner.MAX_WORKERS}"),
    ])
    def test_workers_refused_before_any_fork(self, tmp_path, monkeypatch, command, workers,
                                             code, message):
        pools = []

        def pool(max_workers):
            pools.append(max_workers)
            raise AssertionError(f"a pool of {max_workers} workers was started")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", pool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": "lis",
                                   "replicates": 5, "parameters": {"n": 20}}))
        out = tmp_path / "out"
        argv = ["--n-list", "10", "20", "40"] if command == "scale" else []
        got = run_cli(command, str(cfg), *argv, "--workers", workers, "--out", str(out))
        assert got == (code, "", f"{'size limit' if code == 4 else 'invalid input'}: "
                                 f"{message}\n")
        assert pools == []
        if command == "run":
            assert not out.exists()

    def test_report_directory(self, tmp_path):
        code, _, err = run_cli("report", str(tmp_path))
        assert code == 2
        assert "Traceback" not in err
        assert str(tmp_path) in err

    def test_run_out_directory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "lis", "replicates": 5,
            "base_seed": 9, "parameters": {"n": 20},
        }))
        code, stdout, err = run_cli("run", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert "Traceback" not in err
        assert str(tmp_path) in err
        assert stdout == ""

    def test_small_chernoff_run_keeps_csv_and_warns(self, tmp_path):
        out = tmp_path / "records.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "experiment": "chernoff", "replicates": 50,
            "base_seed": 9, "parameters": {"n": 100, "nu": 0.5}, "output": str(out),
        }))
        code, stdout, err = run_cli("run", str(cfg))
        assert code == 0
        assert "Traceback" not in err
        assert len(records_from_csv(out.read_text())) == 50
        summary = json.loads(stdout)
        assert summary["bound"] is None
        assert any("no bound curve" in w and "50" in w for w in summary["warnings"])
        assert "warning: chernoff: no bound curve" in err


def test_chernoff_run_takes_the_bernoulli_variance():
    # Every even centred moment of Bernoulli(nu) is at most nu(1 - nu), so
    # a run hands the corollary that variance, not nu.
    cfg = make_config(experiment="chernoff", replicates=100,
                      parameters={"n": 100, "nu": 0.3})
    _, summary = run_experiment(cfg)
    assert summary.extras["bound_profile"] == {"kind": "bernoulli", "n": 100,
                                               "sigma2": 0.3 * (1 - 0.3)}
    assert summary.bound.tolist() == bound_source(
        {"kind": "bernoulli", "n": 100, "sigma2": 0.21}, summary.t_grid)[2] \
        .tail_probability.tolist()


@pytest.mark.parametrize("replicates, attached", [(99, False), (100, True)])
def test_default_bound_needs_100_replicates(replicates, attached):
    cfg = make_config(experiment="chernoff", replicates=replicates,
                      parameters={"n": 100, "nu": 0.5})
    _, summary = run_experiment(cfg)
    assert (summary.bound is not None) is attached
    assert any("no bound curve" in w for w in summary.warnings) is not attached


class TestExperimentExtras:
    def test_chromatic_reports_envelopes(self):
        cfg = make_config(
            experiment="chromatic", replicates=8,
            parameters={"n": 12, "p_spec": {"kind": "uniform", "p": 0.1}},
        )
        _, summary = run_experiment(cfg)
        assert "mad_p" in summary.extras
        assert "envelope_n_sqrtp_logn" in summary.extras
        assert summary.extras["envelope_mad_logn"] == pytest.approx(
            summary.extras["mad_p"] * math.log(12))

    @pytest.mark.parametrize("cap, reported", [(11, False), (12, True)])
    def test_mad_follows_graphs_cap(self, monkeypatch, cap, reported):
        from tailbounds import graphs

        monkeypatch.setattr(graphs, "MAD_MAX_N", cap)
        cfg = make_config(
            experiment="chromatic", replicates=2,
            parameters={"n": 12, "p_spec": {"kind": "two_block", "p_in": 0.8,
                                            "p_out": 0.05, "split": 0.5}},
        )
        _, summary = run_experiment(cfg)
        assert ("mad_p" in summary.extras) is reported
        assert ("envelope_mad_logn" in summary.extras) is reported

    def test_two_block_matrix(self):
        cfg = make_config(
            experiment="chromatic", replicates=4,
            parameters={"n": 10,
                        "p_spec": {"kind": "two_block", "p_in": 0.8,
                                   "p_out": 0.05, "split": 0.5}},
        )
        records, _ = run_experiment(cfg)
        assert all(r.f >= 1 for r in records)
