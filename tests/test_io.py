"""Config parsing, serialization round trips, DOT rendering, and the CLI."""

import base64
import io
import json
import logging
import re
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import NanDrawsFrom, vertex_series
from volpath import cli, config, harness
from volpath.cli import main
from volpath.config import (
    CONVENTIONS,
    build_manifest,
    config_digest,
    load_config,
    parse_config,
)
from volpath.errors import ConfigurationError, shown
from volpath.export import (
    atomic_write_text,
    baselines_from_dict,
    baselines_to_dict,
    bench_csv_text,
    export_dot,
    pathway_from_dict,
    pathway_to_dict,
    read_baselines_json,
    read_pathway_json,
    series_csv_text,
    summary_csv_text,
    write_baselines_json,
    write_pathway_json,
)
from volpath.harness import BenchRow, SummaryRow, derive_seed
from volpath.pathway import (
    BaseDag,
    PathwayDag,
    base_dag_canonical,
    canonical_tests,
    compute_pathway,
    score_tables,
)
from volpath.qoi import RegistryEvaluator, registry_canonical
from volpath.stats import BaselineStats
from volpath.surrogate import N_NOISE_BANDS, PRESET_ID, Stepper


def tiny_config_dict(tmp_path, **extra):
    cfg = {
        "grid": {"nlat": 8, "nlon": 8, "nlev": 8},
        "surrogate": {"overrides": {"n_steps": 40}},
        "eruption": {"mass": 10.0, "day": 2.0},
        "plan": {
            "masses": [5.0, 10.0],
            "n_members": 2,
            "baseline_members": 2,
            "seed": 11,
            "experiments": {"Ex1": [0.5, 0.75]},
        },
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, **extra):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tiny_config_dict(tmp_path, **extra)))
    return path


def tiny_pathway():
    base = BaseDag(vertices=("A", "B", "C"), edges=(("A", "B"), ("B", "C")))
    activation = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=bool
    )
    return PathwayDag(base=base, activation=activation, dt=0.5)


def tiny_baseline():
    stats = BaselineStats("T(e)", 3)
    for values in ([240.0, 241.0, 242.0, 243.0], [240.5, 240.0, 242.5, 241.0]):
        stats.update(values)
    return stats


def planes(values):
    """The eight byte planes, least significant first, of the differences between the
    consecutive float64 bit patterns of values, the first taken from 0, modulo 2**64."""
    bits = np.asarray(values, "<f8").view("<u8")
    deltas = bits - np.concatenate([np.zeros(1, "<u8"), bits[:-1]])
    return np.stack([(deltas >> np.uint64(8 * k)) & np.uint64(0xFF) for k in range(8)]
                    ).astype(np.uint8).tobytes()


def deflated(data, level=6):
    """The base64 of zlib's deflate of data."""
    return base64.b64encode(zlib.compress(data, level)).decode()


def packed(values, level=6):
    """values in a baselines file's form: the base64 of their deflated byte planes."""
    return deflated(planes(values), level)


def unpacked(text):
    """The float64s of a baselines file's packed field, decoded as its documentation says."""
    rows = np.frombuffer(zlib.decompress(base64.b64decode(text)), "u1").reshape(8, -1)
    return np.cumsum(rows.T.copy().view("<u8"), dtype="<u8").view("<f8")


#: every field the writers put in a file, config_digest aside (it is provenance)
PATHWAY_FIELDS = [k for k in pathway_to_dict(tiny_pathway(), "abc") if k != "config_digest"]
BASELINE_FIELDS = list(baselines_to_dict({"T(e)": tiny_baseline()})["T(e)"])

#: input file contents placed by place_input rather than written as text
DIRECTORY, NO_PERMISSION = "<a directory>", "<no permission>"
#: the contents no reader can read, whatever the file's kind, with what the error says
UNREADABLE = [
    pytest.param(DIRECTORY, "<file>: [Errno 21] Is a directory", id="directory"),
    pytest.param(b"\xff\xfe\x00bad", "<file>: 'utf-8' codec can't decode", id="not-utf-8"),
    pytest.param("[" * 100_000 + "]" * 100_000, "<file>: maximum recursion depth exceeded",
                 id="nested-100000-deep"),
    pytest.param(NO_PERMISSION, "<file>: [Errno 13] Permission denied", id="no-permission"),
]


def place_input(path, content, monkeypatch):
    """Put content at path: a directory, a file that refuses to be read, bytes or text."""
    if content == DIRECTORY:
        path.mkdir()
        return
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    if content == NO_PERMISSION:
        # the tests may run as root, which reads any file, so the refusal is patched in
        read_text = Path.read_text

        def refusing(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refusing)


#: JSON text no field of a pathway or baselines file should hold: the wrong type, NaN, +-inf,
#: a negative number, huge integers (the last beyond the parser's digit limit), an empty
#: list, and nesting, the deepest beyond the parser's recursion limit
HOSTILE_JSON = st.sampled_from([
    '"abc"', "null", "true", "{}", "NaN", "Infinity", "-Infinity", "-1", "-0.5",
    "1" + "0" * 30, "1" + "0" * 400, "1" * 5000, "[]",
]) | st.sampled_from([1, 3, 100_000]).map(lambda depth: "[" * depth + "]" * depth)


def _not_canonical(text):
    """text with the padding bits of its last character set: it decodes to the same bytes."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    last = text.rstrip("=")[-1]
    return text.replace(last + "=", alphabet[alphabet.index(last) + 1] + "=")


#: what a baselines reader says of a 'mean' or 'm2' that is not packed float64s
NOT_PACKED = "must be the canonical base64 of the deflated byte planes of a non-empty '<f8' array"
#: what it says of a stream that inflates but is not the one this zlib writes
NOT_THIS_ZLIB = f"is not the stream zlib {zlib.ZLIB_RUNTIME_VERSION} writes"
_FOUR = packed([240.0, 241.0, 242.0, 243.0])
#: JSON text no packed field ('mean', 'm2') of a baselines file should hold: padding bits that
#: are not zero, 7 bytes, characters outside the alphabet, an embedded newline, NaN (also with
#: a payload) and +-inf bits, a negative number (an m2 never is), 3 steps where the other field
#: has 4, the decimal list form before the packed one, valid floats deflated at level 0 (not
#: canonical), streams that inflate to 7 or 0 bytes, a stream cut short, bytes after the end
#: of the stream, and the uncompressed '<f8' bytes, the form before the deflated one
HOSTILE_PACKED = st.sampled_from([json.dumps(text) for text in (
    _not_canonical(_FOUR), base64.b64encode(bytes(7)).decode(),
    "*" + _FOUR[1:], _FOUR.replace("A", "-"), _FOUR[:20] + "\n" + _FOUR[20:], _FOUR + "\n",
    packed([np.nan] * 4), packed(np.array([0x7FF8_0000_0000_0001] * 4, "<u8").view("<f8")),
    packed([240.0, np.inf, 0.0, 0.0]), packed([-np.inf] * 4), packed([-1.0, 0.0, 0.0, 0.0]),
    packed([0.0, 0.0, 0.0]), packed([240.0, 241.0, 242.0, 243.0], level=0),
    deflated(bytes(7)), deflated(b""), _FOUR[:12],
    base64.b64encode(base64.b64decode(_FOUR) + b"\0").decode(),
    base64.b64encode(np.array([240.0, 241.0, 242.0, 243.0], "<f8").tobytes()).decode(),
)] + ["[240.0, 241.0, 242.0, 243.0]"])


def read_or_write_back(path, text, field, read, write):
    """The property of a reader: given text with one field made hostile, it either raises
    naming the field or the file, or returns a value the writer turns back into text."""
    path.write_text(text)
    try:
        value = read(path)
    except ConfigurationError as exc:
        assert f"'{field}'" in str(exc) or str(path) in str(exc), str(exc)
    else:
        write(path, value)
        assert path.read_text() == text


#: every key of the configuration schema, as section.key
SCHEMA_KEYS = [f"{where}.{key}" if where else key for where, keys in config._KEYS.items()
               for key in keys]
#: values no key of a configuration should take: the wrong type, NaN, +-inf, a negative number,
#: 0, huge numbers, an empty list or string, and strings holding a path
HOSTILE_CONFIG = [
    True, [1.0], float("nan"), float("inf"), float("-inf"), -1, -0.5, 0, 1e300, 10**30, [], "",
    "a/b", "../x",
]


#: each numeric flag of the CLI, and the command it is given to
NUMERIC_FLAGS = {
    "--mass": "simulate", "--member": "simulate", "--seed": "simulate", "--day": "export-dot",
    "--steps": "bench", "--repetitions": "bench", "--counts": "bench",
}


def names_a_key(message):
    """Whether message starts with a key of the schema: section.key, or a whole section."""
    return any(message.startswith(key) and message[len(key):][:1] in (":", " ", ".", "[")
               for key in SCHEMA_KEYS)


class TestConfig:
    # 600 examples draw each of the 33 x 14 (key, value) pairs
    @settings(max_examples=600, deadline=None)
    @given(key=st.sampled_from(SCHEMA_KEYS), value=st.sampled_from(HOSTILE_CONFIG))
    def test_hostile_key_is_named_or_builds(self, key, value):
        """One key of a valid 8x8x8 config made hostile either fails naming a key, in a short
        message, or parses into a config whose grid, steppers, evaluator and tests all build."""
        raw = tiny_config_dict(Path("."), snapshot_days=[1.0])
        *sections, name = key.split(".")
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
        try:
            cfg = parse_config(raw)
        except ConfigurationError as exc:
            assert names_a_key(str(exc)) and len(str(exc)) < 200, str(exc)
            return
        grid = cfg.build_grid()
        for mass in cfg.plan.masses:
            Stepper(cfg.params, replace(cfg.eruption, mass=mass), grid)
        RegistryEvaluator(grid, registry_canonical())
        for _, t_l, t_u in cfg.plan.experiments:
            canonical_tests(t_l, t_u)

    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.grid == {
            "nlat": 32, "nlon": 64, "nlev": 16, "p_top": 1.0, "p_surface": 1000.0
        }
        assert cfg.preset == PRESET_ID
        assert cfg.params.n_steps == 4800
        assert cfg.eruption.mass == 10.0 and cfg.eruption.day == 90.0
        assert cfg.plan.seed == 20260964
        assert cfg.snapshot_days == ()

    def test_file_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.params.n_steps == 40
        assert cfg.plan.masses == (5.0, 10.0)
        assert cfg.plan.experiments == (("Ex1", 0.5, 0.75),)
        cfg.build_grid()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [unclosed")
        with pytest.raises(ConfigurationError):
            load_config(path)
        path.write_text("- not\n- a\n- mapping\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config({"surrogate": {"preset": "other"}})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config({"surrogate": {"overrides": {"gravity": 9.8}}})

    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert config_digest(load_config(path)) == config_digest(parse_config({}))

    def test_digest_stable_and_sensitive(self, tmp_path):
        a = load_config(write_config(tmp_path))
        b = load_config(write_config(tmp_path))
        assert config_digest(a) == config_digest(b)
        c = parse_config(tiny_config_dict(tmp_path, eruption={"mass": 20.0}))
        assert config_digest(a) != config_digest(c)

    def test_default_digest_pinned(self):
        # a change to the digest's payload would orphan every written config_digest
        assert config_digest(parse_config({})) == (
            "7500fdc9b7c80366e12447c230df1ff52b4f59c75ddbd1baa840aa443ca35399"
        )

    def test_mixed_config_digest_pinned(self):
        # int-valued float overrides are hashed as written, None and tuples as JSON
        raw = {
            "surrogate": {"overrides": {"dt": 1, "tau_decay": None, "n_steps": 40}},
            "snapshot_days": [1, 2.5],
            "plan": {"experiments": {"A": [0.5, 1]}, "masses": [3]},
            "eruption": {"mass": 7, "injection_levels": [20, 80]},
        }
        assert config_digest(parse_config(raw)) == (
            "e093f1f77b737adef16ea2f3bd090d2e2e93ea30dac54d38975e29deb5795897"
        )

    def test_manifest_is_deterministic(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        m1 = build_manifest(cfg, seeds={"0": 1})
        m2 = build_manifest(cfg, seeds={"0": 1})
        assert m1 == m2
        assert m1["conventions"] == CONVENTIONS
        assert m1["never_active_day"] == 10.0
        assert "timestamp" not in m1


class TestPathwaySerialization:
    def test_dict_round_trip(self):
        pw = tiny_pathway()
        doc = pathway_to_dict(pw, manifest_digest="abc")
        back = pathway_from_dict(doc)
        assert back.base == pw.base
        assert back.dt == pw.dt
        assert np.array_equal(back.activation, pw.activation)
        assert doc["config_digest"] == "abc"
        assert doc["n_steps"] == 3
        assert doc["intervals"] == [[[1, 3]], [[2, 4]], [[3, 4]]]

    def test_file_round_trip(self, tmp_path):
        pw = tiny_pathway()
        path = tmp_path / "deep" / "pathway.json"
        write_pathway_json(path, pw, "abc")
        back = read_pathway_json(path)
        assert np.array_equal(back.activation, pw.activation)
        json.loads(path.read_text())

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_pathway_json(tmp_path / "missing.json")

    def test_shape_mismatch_rejected(self):
        doc = pathway_to_dict(tiny_pathway(), "abc")
        doc["intervals"] = doc["intervals"][:2]
        with pytest.raises(ConfigurationError, match="'intervals' must hold 3 lists"):
            pathway_from_dict(doc)

    @pytest.mark.parametrize("key", PATHWAY_FIELDS)
    def test_every_written_field_is_required(self, key):
        doc = pathway_to_dict(tiny_pathway(), manifest_digest="abc")
        del doc[key]
        with pytest.raises(ConfigurationError, match=f"missing field '{key}'"):
            pathway_from_dict(doc)

    @settings(max_examples=200, deadline=None)
    @given(
        activation=st.tuples(st.integers(1, 13), st.integers(0, 5)).flatmap(
            lambda shape: st.one_of(
                arrays(bool, shape),
                st.just(np.zeros(shape, dtype=bool)),
                st.just(np.ones(shape, dtype=bool)),
            )
        )
    )
    def test_intervals_round_trip(self, tmp_path_factory, activation):
        vertices = tuple(f"v{l}" for l in range(activation.shape[1]))
        base = BaseDag(vertices=vertices, edges=tuple(zip(vertices, vertices[1:])))
        pw = PathwayDag(base=base, activation=activation, dt=0.25)
        doc = pathway_to_dict(pw, "abc")
        path = tmp_path_factory.mktemp("pw") / "pathway.json"
        write_pathway_json(path, pw, "abc")
        back = read_pathway_json(path)
        for decoded in (pathway_from_dict(doc), back):
            assert decoded.activation.dtype == bool
            assert np.array_equal(decoded.activation, activation)
            assert decoded.base == base and decoded.dt == 0.25
        again = path.with_name("again.json")
        write_pathway_json(again, back, "abc")
        assert again.read_bytes() == path.read_bytes()


    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(PATHWAY_FIELDS), value=HOSTILE_JSON)
    def test_hostile_field_is_named_or_written_back(self, tmp_path_factory, field, value):
        doc = {**pathway_to_dict(tiny_pathway(), "abc"), field: "<hostile>"}
        text = json.dumps(doc, separators=(",", ":")).replace('"<hostile>"', value)
        path = tmp_path_factory.mktemp("pw") / "pathway.json"
        read_or_write_back(path, text, field, read_pathway_json,
                           lambda path, pathway: write_pathway_json(path, pathway, "abc"))


class TestBaselineSerialization:
    def test_round_trip(self, tmp_path):
        # a default-length run: rebuilding m2 from a stored std changes bits here
        rng = np.random.default_rng(0)
        stats = BaselineStats("T(e)", 4800)
        for _ in range(10):
            stats.update(240.0 + rng.standard_normal(4801))
        write_baselines_json(tmp_path / "b.json", {"T(e)": stats})
        back = read_baselines_json(tmp_path / "b.json")["T(e)"]
        assert back.n == 10
        assert np.array_equal(back.mean, stats.mean)
        assert np.array_equal(back.m2, stats.m2)
        assert np.array_equal(back.std(), stats.std())

    @pytest.mark.parametrize("key", BASELINE_FIELDS)
    def test_every_written_field_is_required(self, key):
        doc = baselines_to_dict({"T(e)": tiny_baseline()})
        del doc["T(e)"][key]
        with pytest.raises(ConfigurationError, match=rf"baseline 'T\(e\)': missing field '{key}'"):
            baselines_from_dict(doc)

    def test_stream_that_inflates_past_memory_is_named(self, monkeypatch):
        def out_of_memory(data):
            raise MemoryError

        doc = baselines_to_dict({"T(e)": tiny_baseline()})
        monkeypatch.setattr(zlib, "decompress", out_of_memory)
        with pytest.raises(ConfigurationError,
                           match=r"^baseline 'T\(e\)': 'mean' inflates past memory$"):
            baselines_from_dict(doc)

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(BASELINE_FIELDS), value=HOSTILE_JSON | HOSTILE_PACKED)
    def test_hostile_field_is_named_or_written_back(self, tmp_path_factory, field, value):
        doc = baselines_to_dict({"T(e)": tiny_baseline(), "T(s)": tiny_baseline()})
        doc["T(e)"][field] = "<hostile>"
        text = json.dumps(doc).replace('"<hostile>"', value)
        path = tmp_path_factory.mktemp("bl") / "baselines.json"
        read_or_write_back(path, text, field, read_baselines_json, write_baselines_json)


    # 5e-324 and -2.2e-308 are subnormal; 1.7e308 is near the largest float64
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 10**6),
           mean=arrays(np.float64, st.sampled_from([1, 2, 4801]),
                       elements=st.floats(allow_nan=False, allow_infinity=False)
                       | st.sampled_from([-0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308])),
           data=st.data())
    def test_packed_fields_write_back_byte_for_byte(self, tmp_path_factory, n, mean, data):
        m2 = data.draw(arrays(np.float64, mean.shape,
                              elements=st.floats(min_value=0.0, allow_infinity=False)
                              | st.sampled_from([-0.0, 5e-324, 1.7e308])))
        path = tmp_path_factory.mktemp("bl") / "baselines.json"
        write_baselines_json(path, {"T(e)": BaselineStats.from_arrays("T(e)", n, mean, m2)})
        text = path.read_text()
        entry = json.loads(text)["T(e)"]
        assert unpacked(entry["mean"]).tobytes() == mean.tobytes()
        assert unpacked(entry["m2"]).tobytes() == m2.tobytes()
        back = read_baselines_json(path)["T(e)"]
        assert back.n == n
        assert back.mean.tobytes() == mean.tobytes() and back.m2.tobytes() == m2.tobytes()
        write_baselines_json(path, {"T(e)": back})
        assert path.read_text() == text


class TestCsv:
    def test_series_round_trip(self):
        rng = np.random.default_rng(0)
        series = {"SO2(e)": rng.standard_normal(4), "T(e)": rng.standard_normal(4)}
        text = series_csv_text(series, dt=0.25)
        lines = text.strip().split("\n")
        assert lines[0] == "step,time_days,SO2(e),T(e)"
        assert len(lines) == 5
        for m, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert int(parts[0]) == m
            assert float(parts[1]) == m * 0.25
            assert float(parts[2]) == series["SO2(e)"][m]  # repr round trip is exact
            assert float(parts[3]) == series["T(e)"][m]

    def test_summary_header_and_rows(self):
        rows = [SummaryRow(5.0, "Ex1", "T(e)", 10, 90.25, 1.5, 100.0, 2.5)]
        text = summary_csv_text(rows)
        lines = text.strip().split("\n")
        assert lines[0].split(",") == [
            "mass_tg", "experiment", "qoi_id", "n_members",
            "mean_first_days", "se_first_days", "mean_total_days", "se_total_days",
        ]
        assert lines[1] == "5.0,Ex1,T(e),10,90.25,1.5,100.0,2.5"

    def test_bench_csv(self):
        rows = [BenchRow(7, 0.01, 0.011, 1.1), BenchRow(875, 1 / 3, 2.5e-5, 12.345678912)]
        assert bench_csv_text(rows) == (
            "qoi_count,baseline_s_per_step,tracked_s_per_step,ratio\n"
            "7,1.000000e-02,1.100000e-02,1.100000e+00\n"
            "875,3.333333e-01,2.500000e-05,1.234568e+01\n"
        )


class TestDot:
    def test_active_and_inactive_styles(self):
        dot = export_dot(tiny_pathway(), day=1.0)  # step 2: A, B active
        assert "rankdir=LR;" in dot
        assert '"A" [style=filled, fillcolor=orange];' in dot
        assert '"B" [style=filled, fillcolor=orange];' in dot
        assert '"C" [style=filled, fillcolor=gray];' in dot
        assert '"A" -> "B";' in dot
        assert '"B" -> "C" [style=dashed, color=gray];' in dot

    def test_active_only_omits_inactive(self):
        dot = export_dot(tiny_pathway(), day=1.0, active_only=True)
        assert "gray" not in dot
        assert '"C"' not in dot

    def test_day_out_of_range(self):
        with pytest.raises(ConfigurationError, match="outside"):
            export_dot(tiny_pathway(), day=100.0)

    @pytest.mark.parametrize(
        "day, graph_id",
        [(-0.1, "pathway_day__0_1"), (1e-05, "pathway_day_1e_05"),
         (30.5, "pathway_day_30_5"), (100.0, "pathway_day_100")],
    )
    def test_graph_id_is_a_dot_id(self, day, graph_id):
        base = BaseDag(vertices=("A",), edges=())
        pathway = PathwayDag(base=base, activation=np.zeros((401, 1), dtype=bool), dt=0.25)
        first = export_dot(pathway, day).split("\n")[0]
        assert first == f"digraph {graph_id} {{"
        assert re.fullmatch(r"[A-Za-z_]\w*", graph_id)


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "hello")
        assert (tmp_path / "a.txt").read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failure_leaves_no_partial_file(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        with pytest.raises(OSError):
            atomic_write_text(blocker / "x.txt", "hello")
        assert blocker.read_text() == ""


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg)]) == 0
        assert (out / "series.csv").exists()
        assert (out / "pathway.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["surrogate_preset"] == PRESET_ID

    def test_simulate_mass_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg), "--mass", "0"]) == 0
        text = (tmp_path / "out" / "series.csv").read_text()
        data_cells = [line.split(",")[2] for line in text.strip().split("\n")[1:]]
        assert all(float(v) == 0.0 for v in data_cells)  # SO2(e) column

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.yaml")]) == 2

    def test_baseline_then_simulate_with_zscores(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["baseline", str(cfg)]) == 0
        assert (out / "baselines.json").exists()
        built = []
        monkeypatch.setattr(cli, "score_tables", lambda *a: built.append(a) or score_tables(*a))
        assert main([
            "simulate", str(cfg), "--baseline", str(out / "baselines.json"),
        ]) == 0
        # one set of score tables serves the check and the pathway
        assert len(built) == 1

    def test_simulate_pathway_equals_compute_pathway_over_written_series(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["baseline", str(cfg)]) == 0
        assert main(["simulate", str(cfg), "--baseline", str(out / "baselines.json")]) == 0
        header, *lines = (out / "series.csv").read_text().strip().split("\n")
        values = np.array([[float(x) for x in line.split(",")[2:]] for line in lines])
        series = {qid: values[:, i] for i, qid in enumerate(header.split(",")[2:])}
        params = load_config(cfg).params
        tables = score_tables(
            base_dag_canonical(), canonical_tests(0.5, 0.75),
            read_baselines_json(out / "baselines.json"), params.n_steps,
        )
        expected = compute_pathway(base_dag_canonical(), series, tables, params.dt)
        written = read_pathway_json(out / "pathway.json")
        assert written.dt == expected.dt
        assert np.array_equal(written.activation, expected.activation)
        assert vertex_series(written, "SO2(e)").any()

    def test_baseline_shorter_than_run_exits_2(self, tmp_path, capsys):
        short = write_config(tmp_path, surrogate={"overrides": {"n_steps": 10}})
        assert main(["baseline", str(short), "--out", str(tmp_path / "bl")]) == 0
        cfg = write_config(tmp_path, surrogate={"overrides": {"n_steps": 20}})
        baseline = str(tmp_path / "bl" / "baselines.json")
        assert main(["experiment", str(cfg), "--baseline", baseline]) == 2
        err = capsys.readouterr().err
        assert "baseline for T(e) has 11 steps, the run needs 21" in err

    @pytest.mark.parametrize("command", ["experiment", "simulate"])
    @pytest.mark.parametrize(
        "defect, named",
        [pytest.param("short", "baseline for T(e) has 11 steps, the run needs 41", id="short"),
         pytest.param("no T(s)", "T(s) has no baseline entry", id="no-T(s)"),
         pytest.param("sigma 0", "baseline sigma for T(p) is not positive at step 5",
                      id="sigma-0"),
         pytest.param("one member", "T(e): sample std needs >= 2 members, have 1",
                      id="one-member")],
    )
    def test_bad_baseline_rejected_before_any_member_runs(
        self, tmp_path, capsys, monkeypatch, command, defect, named
    ):
        steps = 10 if defect == "short" else 40
        short = write_config(tmp_path, surrogate={"overrides": {"n_steps": steps}})
        assert main(["baseline", str(short), "--out", str(tmp_path / "bl")]) == 0
        path = tmp_path / "bl" / "baselines.json"
        doc = json.loads(path.read_text())
        if defect == "no T(s)":
            del doc["T(s)"]
        elif defect == "sigma 0":
            m2 = unpacked(doc["T(p)"]["m2"]).copy()
            m2[5] = 0.0
            doc["T(p)"]["m2"] = packed(m2)
        elif defect == "one member":
            doc["T(e)"]["n_members"] = 1
        path.write_text(json.dumps(doc))
        cfg = write_config(tmp_path)
        ran = []
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(cli, "canonical_series", lambda *a, **k: ran.append(a))
        assert main([command, str(cfg), "--baseline", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and named in err
        assert ran == []

    def test_degenerate_computed_baseline_rejected_before_any_member_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        # without noise every baseline member is the same, so sigma is 0
        cfg = write_config(tmp_path, surrogate={"overrides": {"n_steps": 40, "noise_amp": 0}})
        ran = []
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *a, **k: ran.append(a))
        assert main(["experiment", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "baseline sigma for T(e) is not positive at step 1" in err
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_degenerate_baseline_is_not_written(self, tmp_path, capsys):
        # without noise every baseline member is the same, so sigma is 0
        cfg = write_config(tmp_path, surrogate={"overrides": {"n_steps": 40, "noise_amp": 0}})
        assert main(["baseline", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: baseline sigma for T(e) is not positive at step 1; "
            "z-score test is not well-defined\n"
        )
        assert not (tmp_path / "out").exists()

    def test_grid_numpy_cannot_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(**grid):
            raise MemoryError

        monkeypatch.setattr(config, "build_grid", out_of_memory)
        assert main(["experiment", str(write_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: grid: 8 x 8 x 8 is too large to hold\n"
        assert not (tmp_path / "out").exists()

    # every case has its own id, so adding a case renames no other; the older
    # ids are the ones pytest numbered them by, so their names did not change
    @pytest.mark.parametrize(
        "doc, named",
        [
            pytest.param({"T(e)": {"n_members": -1, "mean": packed([240.0]), "m2": packed([0.0])}},
                         ["baseline 'T(e)': 'n_members' must be an integer >= 0"],
                         id="doc0-named0"),
            # a number, not base64 text
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]), "m2": 0.5}},
                         ["T(e)", f"'m2' {NOT_PACKED}\n"], id="doc1-named1"),
            pytest.param({"T(e)": {"n_members": 2, "mean": "", "m2": ""}},
                         ["T(e)", f"'mean' {NOT_PACKED}\n"], id="doc2-named2"),
            pytest.param({"T(e)": {"n_members": "2", "mean": packed([240.0]), "m2": packed([0.0])}},
                         ["T(e)", "'n_members'"], id="doc3-named3"),
            # 'abc' is not a whole number of base64 groups
            pytest.param({"T(e)": {"n_members": 2, "mean": "abc", "m2": packed([0.0])}},
                         ["T(e)", f"'mean' {NOT_PACKED}\n"], id="doc4-named4"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0, 241.0]),
                                   "m2": packed([0.5])}},
                         ["T(e)", "'mean' has 2 steps, 'm2' has 1"], id="doc5-named5"),
            # the form before m2 was stored
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]), "std": packed([0.5])}},
                         ["T(e)", "missing field 'm2'; the 'std' form is no longer read"],
                         id="doc6-named6"),
            pytest.param({"T(e)": [240.0, 241.0]}, ["T(e)", "mapping"], id="doc7-named7"),
            pytest.param([1, 2], ["mapping"], id="doc8-named8"),
            pytest.param("{not json", ["cannot read baseline file <file>: Expecting"],
                         id="{not json-named9"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]),
                                   "m2": packed([float("nan")])}},
                         ["T(e)", "'m2' must hold finite numbers >= 0"],
                         id="doc10-named10"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]),
                                   "m2": packed([float("inf")])}},
                         ["T(e)", "'m2' must hold finite numbers >= 0"],
                         id="doc11-named11"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]), "m2": packed([-0.5])}},
                         ["T(e)", "'m2' must hold finite numbers >= 0"],
                         id="doc12-named12"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([float("nan")]),
                                   "m2": packed([0.5])}},
                         ["T(e)", "'mean' must hold finite numbers"],
                         id="doc13-named13"),
            pytest.param({"T(e)": {"n_members": True, "mean": packed([240.0]),
                                   "m2": packed([0.0])}},
                         ["T(e)", "'n_members' must be an integer >= 0"],
                         id="doc14-named14"),
            # the decimal list form before the packed one
            pytest.param({"T(e)": {"n_members": 2, "mean": [240.0, 241.0], "m2": [0.0, 0.5]}},
                         ["T(e)", f"'mean' {NOT_PACKED}; the list form is no longer read"],
                         id="doc15-named15"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0, 241.0]), "m2": True}},
                         ["T(e)", f"'m2' {NOT_PACKED}\n"], id="doc16-named16"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]), "m2": None}},
                         ["T(e)", f"'m2' {NOT_PACKED}\n"], id="doc17-named17"),
            # an integer beyond the float range, in the list form
            pytest.param('{"T(e)": {"n_members": 2, "mean": [1' + "0" * 400 + '], "m2": [0.0]}}',
                         ["T(e)", f"'mean' {NOT_PACKED}; the list form is no longer read"],
                         id="int-beyond-float"),
            # beyond the parser's limit on the digits of an integer
            pytest.param('{"T(e)": {"n_members": 2, "mean": [' + "1" * 5000 + '], "m2": [0.0]}}',
                         ["cannot read baseline file <file>: Exceeds the limit"],
                         id="int-beyond-digit-limit"),
            # base64 that decodes but is not what the writer writes, or not whole float64s
            pytest.param({"T(e)": {"n_members": 2, "mean": _not_canonical(packed([240.0])),
                                   "m2": packed([0.5])}},
                         ["T(e)", f"'mean' {NOT_PACKED}\n"], id="padding-bits-not-zero"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]),
                                   "m2": base64.b64encode(bytes(7)).decode()}},
                         ["T(e)", f"'m2' {NOT_PACKED}\n"], id="seven-bytes"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]) + "\n",
                                   "m2": packed([0.5])}},
                         ["T(e)", f"'mean' {NOT_PACKED}\n"], id="trailing-newline"),
            # a stream of valid floats that inflates but is not the canonical one
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0, 241.0], level=0),
                                   "m2": packed([0.5, 0.5])}},
                         ["T(e)", f"'mean' {NOT_THIS_ZLIB}; `volpath baseline` rewrites the file"],
                         id="deflated-at-level-0"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]),
                                   "m2": deflated(bytes(7))}},
                         ["T(e)", f"'m2' {NOT_PACKED}\n"], id="inflates-to-seven-bytes"),
            pytest.param({"T(e)": {"n_members": 2, "mean": deflated(b""), "m2": packed([0.5])}},
                         ["T(e)", f"'mean' {NOT_PACKED}\n"], id="inflates-to-zero-bytes"),
            pytest.param({"T(e)": {"n_members": 2, "mean": packed([240.0]),
                                   "m2": base64.b64encode(zlib.compress(planes([0.5]))[:-4])
                                   .decode()}},
                         ["T(e)", f"'m2' {NOT_PACKED}\n"], id="truncated-stream"),
            pytest.param({"T(e)": {"n_members": 2,
                                   "mean": base64.b64encode(zlib.compress(planes([240.0]), 6)
                                                            + b"\0").decode(),
                                   "m2": packed([0.5])}},
                         ["T(e)", f"'mean' {NOT_THIS_ZLIB}"], id="bytes-after-the-stream"),
            # the base64 of the '<f8' bytes themselves, the form before the deflated one
            pytest.param({"T(e)": {"n_members": 2,
                                   "mean": base64.b64encode(np.float64(240.0).tobytes()).decode(),
                                   "m2": packed([0.5])}},
                         ["T(e)", f"'mean' {NOT_PACKED}; the uncompressed packed form is no "
                          "longer read\n"], id="uncompressed-packed-form"),
            *(pytest.param(case.values[0], [f"cannot read baseline file {case.values[1]}"],
                           id=case.id) for case in UNREADABLE),
        ],
    )
    def test_malformed_baseline_file_exits_2(self, tmp_path, capsys, monkeypatch, doc, named):
        cfg = write_config(tmp_path)
        path = tmp_path / "baselines.json"
        place_input(path, doc if isinstance(doc, (str, bytes)) else json.dumps(doc), monkeypatch)
        ran = []
        monkeypatch.setattr(cli, "run_experiment_grid", lambda *a, **k: ran.append(a))
        assert main(["experiment", str(cfg), "--baseline", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        for text in named:
            assert text.replace("<file>", str(path)) in err
        assert ran == []

    def test_experiment_grid_outputs(self, tmp_path):
        cfg = write_config(tmp_path, snapshot_days=[0.0, 5.0])
        out = tmp_path / "out"
        assert main(["experiment", str(cfg)]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 1 * 16  # masses x experiments x QOIs
        pathway_files = sorted(p.name for p in (out / "pathways").iterdir())
        assert pathway_files == [
            "pathway_m10_Ex1_b0.json",
            "pathway_m10_Ex1_b1.json",
            "pathway_m5_Ex1_b0.json",
            "pathway_m5_Ex1_b1.json",
        ]
        snapshots = sorted(p.name for p in (out / "snapshots").iterdir())
        assert snapshots == [
            "dag_m10_Ex1_day0.dot", "dag_m10_Ex1_day5.dot",
            "dag_m5_Ex1_day0.dot", "dag_m5_Ex1_day5.dot",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["member_seeds"]) == 4
        # Common random numbers: the same member uses one seed at every mass.
        assert manifest["member_seeds"] == {
            f"{m:g}/{b}": derive_seed(11, "eruption", b).seed for m in (5.0, 10.0) for b in range(2)
        }

    def test_experiment_logs_each_mass_and_the_output_dir(self, tmp_path, caplog):
        cfg = write_config(tmp_path)
        caplog.set_level(logging.INFO, logger="volpath")
        assert main(["experiment", str(cfg)]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "5 Tg: 2 members, 2 pathway files",
            "10 Tg: 2 members, 2 pathway files",
            f"wrote every mass's files, summary.csv, manifest.json to {tmp_path / 'out'}",
        ]

    def test_experiment_logs_nothing_at_the_default_level(self, tmp_path, capsys, caplog,
                                                         monkeypatch):
        monkeypatch.delenv("VOLPATH_LOG", raising=False)
        assert main(["experiment", str(write_config(tmp_path))]) == 0
        assert capsys.readouterr() == ("", "")
        assert not [r for r in caplog.records if r.name == "volpath"]

    def test_experiment_draws_one_noise_path_per_ensemble(self, tmp_path, monkeypatch):
        plan = {**tiny_config_dict(tmp_path)["plan"], "n_members": 3}
        cfg = write_config(tmp_path, plan=plan)
        paths = []
        noise_path = harness.Stepper.noise_path
        monkeypatch.setattr(harness.Stepper, "noise_path",
                            lambda self, start, normals: paths.append(normals.shape)
                            or noise_path(self, start, normals))
        assert main(["experiment", str(cfg)]) == 0
        # the baseline's 2 members, then the 3 members that both masses share; the 1 Tg
        # tracer run draws none
        assert paths == [(40, 2, N_NOISE_BANDS), (40, 3, N_NOISE_BANDS)]

    def test_experiment_writes_each_mass_before_stepping_the_next(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        pathways = tmp_path / "out" / "pathways"
        on_disk = []
        advance = harness.Stepper.advance_zone_temperature

        def listing_step(self, *args):
            on_disk.append(sorted(p.name for p in pathways.glob("*")))
            return advance(self, *args)

        monkeypatch.setattr(harness.Stepper, "advance_zone_temperature", listing_step)
        assert main(["experiment", str(cfg)]) == 0
        # 40 steps each of the baseline, 5 Tg and 10 Tg ensembles
        m5 = ["pathway_m5_Ex1_b0.json", "pathway_m5_Ex1_b1.json"]
        assert on_disk == [[]] * 40 + [[]] * 40 + [m5] * 40

    def test_experiment_failure_keeps_finished_masses_only(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, snapshot_days=[5.0])
        out = tmp_path / "out"
        called = []
        advance = harness.Stepper.advance_zone_temperature

        def failing_at_10_tg(self, *args):
            called.append(True)
            t = advance(self, *args)
            # after 40 steps of the baseline and 40 of 5 Tg, step 3 of 10 Tg
            if len(called) == 40 + 40 + 3:
                t[1, 2] = np.nan
            return t

        monkeypatch.setattr(harness.Stepper, "advance_zone_temperature", failing_at_10_tg)
        assert main(["experiment", str(cfg)]) == 1
        seed = derive_seed(11, "eruption", 1).seed
        assert capsys.readouterr().err == (
            f"error: member 1 (mass 10.0 Tg, seed {seed}) failed: non-finite T(t) at step 3\n"
        )
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
            "baselines.json",
            "pathways/pathway_m5_Ex1_b0.json",
            "pathways/pathway_m5_Ex1_b1.json",
            "snapshots/dag_m5_Ex1_day5.dot",
        ]

    def test_experiment_without_masses_writes_baselines_and_an_empty_summary(self, tmp_path):
        plan = {**tiny_config_dict(tmp_path)["plan"], "masses": []}
        assert main(["experiment", str(write_config(tmp_path, plan=plan))]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "baselines.json", "manifest.json", "summary.csv",
        ]
        assert (out / "summary.csv").read_text() == summary_csv_text([])

    def test_experiment_from_written_baseline_is_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out, again = tmp_path / "out", tmp_path / "again"
        assert main(["experiment", str(cfg)]) == 0
        baseline = str(out / "baselines.json")
        assert main(["experiment", str(cfg), "--baseline", baseline, "--out", str(again)]) == 0
        rerun = sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
        first = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert first == sorted(rerun + [Path("baselines.json")])
        for rel in rerun:
            assert (again / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_experiment_label_filter(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["experiment", str(cfg), "--experiments", "Ex1"]) == 0
        assert main(["experiment", str(cfg), "--experiments", "Ex9"]) == 2

    def test_unknown_experiment_label_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["experiment", str(cfg), "--experiments", "Ex1,Ex9"]) == 2
        assert "'Ex9'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--baseline"], id="simulate-baseline"),
        pytest.param(["experiment", "--baseline"], id="experiment-baseline"),
        pytest.param(["experiment", "--experiments"], id="experiments"),
        pytest.param(["experiment", "--out"], id="experiment-out"),
        pytest.param(["simulate", "--out"], id="simulate-out"),
        pytest.param(["baseline", "--out"], id="baseline-out"),
        pytest.param(["bench", "--out"], id="bench-out"),
    ])
    def test_empty_flag_value_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                     argv):
        command, flag = argv
        read = []
        monkeypatch.setattr(cli, "load_config", lambda path: read.append(path))
        assert main([command, str(write_config(tmp_path)), flag, ""]) == 2
        assert capsys.readouterr().err == f"configuration error: {flag} must not be empty\n"
        assert read == []
        assert not (tmp_path / "out").exists()

    def test_experiment_builds_each_experiments_tables_once(self, tmp_path, monkeypatch):
        experiments = {"Ex1": [0.5, 0.75], "Ex2": [0.5, 1.0], "Ex3": [0.5, 1.5]}
        plan = {**tiny_config_dict(tmp_path)["plan"], "experiments": experiments}
        cfg = write_config(tmp_path, plan=plan)
        built, during_grid = [], []
        for module in (cli, harness):
            monkeypatch.setattr(module, "score_tables",
                                lambda *a: built.append(a) or score_tables(*a))
        grid_run = harness.run_experiment_grid

        def counted(*args):
            before = len(built)
            yield from grid_run(*args)
            during_grid.append(len(built) - before)

        monkeypatch.setattr(cli, "run_experiment_grid", counted)
        assert main(["experiment", str(cfg)]) == 0
        # once per experiment, before the grid; never per mass
        assert len(built) == len(experiments) and during_grid == [0]
        built.clear()
        assert main(["baseline", str(cfg), "--out", str(tmp_path / "bl")]) == 0
        assert len(built) == len(experiments)

    def test_each_mass_alone_writes_its_cells(self, tmp_path):
        """experiment on one mass, given the plan's baselines, writes that mass's pathway
        files and summary rows byte for byte (config_digest aside); simulate on one of its
        members writes the same intervals as its first experiment's pathway file."""
        plan = {**tiny_config_dict(tmp_path)["plan"], "masses": [0.0, 5.0, 20.0],
                "experiments": {"Ex1": [0.5, 0.75], "Ex2": [0.5, 1.5]}}
        full = tmp_path / "full"
        assert main(["experiment", str(write_config(tmp_path, plan=plan)), "--out", str(full)]) == 0
        baseline = str(full / "baselines.json")
        header, *rows = (full / "summary.csv").read_text().splitlines()

        def cells(out, mass):
            return {p.name: re.sub(r'"config_digest":"[0-9a-f]+"', "", p.read_text())
                    for p in (out / "pathways").glob(f"pathway_m{mass:g}_*.json")}

        for mass in plan["masses"]:
            alone = tmp_path / f"m{mass:g}"
            cfg = str(write_config(tmp_path, plan={**plan, "masses": [mass]}))
            assert main(["experiment", cfg, "--baseline", baseline, "--out", str(alone)]) == 0
            assert cells(alone, mass) == cells(full, mass)
            assert len(cells(alone, mass)) == 2 * 2
            mass_rows = [row for row in rows if float(row.split(",")[0]) == mass]
            assert (alone / "summary.csv").read_text().splitlines() == [header, *mass_rows]
            for b in range(2):
                one = tmp_path / f"m{mass:g}_b{b}"
                assert main(["simulate", cfg, "--mass", f"{mass:g}", "--member", str(b),
                             "--baseline", baseline, "--out", str(one)]) == 0
                cell = full / "pathways" / f"pathway_m{mass:g}_Ex1_b{b}.json"
                simulated = json.loads((one / "pathway.json").read_text())
                assert simulated["intervals"] == json.loads(cell.read_text())["intervals"]

    # every case has its own id, as in test_malformed_baseline_file_exits_2
    @pytest.mark.parametrize(
        "patch, key",
        [
            pytest.param({"grid": {"nlat": "abc"}}, "grid.nlat", id="patch0-grid.nlat"),
            pytest.param({"grid": {"nlatt": 8}}, "grid.nlatt", id="patch1-grid.nlatt"),
            pytest.param({"grid": [1, 2]}, "grid", id="patch2-grid"),
            pytest.param({"eruption": {"mass": "abc"}}, "eruption.mass",
                         id="patch3-eruption.mass"),
            pytest.param({"eruption": {"injection_levels": [25.0]}}, "eruption.injection_levels",
                         id="patch4-eruption.injection_levels"),
            pytest.param({"plan": {"masses": 5}}, "plan.masses", id="patch5-plan.masses"),
            pytest.param({"plan": {"masses": [5.0, -5.0]}}, "plan.masses",
                         id="patch6-plan.masses"),
            pytest.param({"plan": {"experiments": {"Ex1": 0.5}}}, "plan.experiments.Ex1",
                         id="patch7-plan.experiments.Ex1"),
            pytest.param({"plan": {"n_members": 2.7}}, "plan.n_members",
                         id="patch8-plan.n_members"),
            pytest.param({"surrogate": {"overrides": {"n_steps": 10.5}}},
                         "surrogate.overrides.n_steps",
                         id="patch9-surrogate.overrides.n_steps"),
            pytest.param({"surrogate": {"overrides": {"k_heat": "warm"}}},
                         "surrogate.overrides.k_heat",
                         id="patch10-surrogate.overrides.k_heat"),
            pytest.param({"snapshot_days": [5000.0]}, "snapshot_days", id="patch11-snapshot_days"),
            pytest.param({"outputs": "out"}, "outputs", id="patch12-outputs"),
            pytest.param({"snapshot_days": [1e308]}, "snapshot_days", id="patch13-snapshot_days"),
            pytest.param({"eruption": {"mass": -3}}, "eruption.mass", id="patch14-eruption.mass"),
            pytest.param({"surrogate": {"overrides": {"dt": -1}}}, "surrogate.overrides.dt",
                         id="patch15-surrogate.overrides.dt"),
            pytest.param({"surrogate": {"overrides": {"noise_memory": 1.0}}},
                         "surrogate.overrides.noise_memory",
                         id="patch16-surrogate.overrides.noise_memory"),
            pytest.param({"eruption": {"injection_levels": [80.0, 20.0]}},
                         "eruption.injection_levels",
                         id="patch17-eruption.injection_levels"),
            # selects none of the 8 levels, and the plan's masses erupt
            pytest.param({"eruption": {"injection_levels": [1.5, 1.6]}},
                         "eruption.injection_levels",
                         id="patch18-eruption.injection_levels"),
            pytest.param({"eruption": {"lat": 100.0}}, "eruption.lat", id="patch19-eruption.lat"),
            pytest.param({"plan": {"experiments": {"Ex1": [0.5, 1.0], "Ex2": [-1.0, -0.5]}}},
                         "plan.experiments.Ex2", id="patch20-plan.experiments.Ex2"),
            # a label is part of file names and of summary.csv rows
            pytest.param({"plan": {"experiments": {"x/../../../y": [0.5, 1.0]}}},
                         "plan.experiments.x/../../../y: a label", id="label-path"),
            pytest.param({"plan": {"experiments": {"a,b": [0.5, 1.0]}}},
                         "plan.experiments.a,b: a label", id="label-comma"),
            pytest.param({"plan": {"experiments": {"": [0.5, 1.0]}}},
                         "plan.experiments.: a label", id="label-empty"),
            # CFL fraction 200 * 0.25 / 22.5 on the 8-row grid
            pytest.param({"surrogate": {"overrides": {"v_transport": 200}}, "grid": {"nlat": 8}},
                         "surrogate.overrides.v_transport: transport CFL fraction 2.222 > 1 "
                         "at dt 0.25 on grid.nlat 8", id="cfl"),
            # masses name output files by their {:g} form
            pytest.param({"plan": {"masses": [5.0, 5.000001]}}, "plan.masses", id="masses-collide"),
            pytest.param({"plan": {"masses": [5.0, 10.0, 5.0]}}, "plan.masses", id="masses-repeat"),
            # and snapshot days their DOT files: both of these are day123456
            pytest.param({"snapshot_days": [123456.0, 123456.25],
                          "surrogate": {"overrides": {"n_steps": 500000}}},
                         "snapshot_days must differ in the {:g} form", id="snapshot-days-collide"),
            # the 4 row centers, at -67.5, -22.5, 22.5 and 67.5, miss zones s and t
            pytest.param({"grid": {"nlat": 4}},
                         "grid.nlat: zone 's' of SO2(s) holds none of the 4 rows",
                         id="nlat-empty-zone"),
            # mid-levels at 125.9, 375.6, 625.4 and 875.1 hPa, none in 25-75 hPa
            pytest.param({"grid": {"nlev": 4}, "eruption": {"injection_levels": [100.0, 200.0]}},
                         "grid.nlev: none of the 4 mid-levels lies in the 25-75 hPa of SO2(e)",
                         id="nlev-empty-range"),
            pytest.param({"output_dir": None}, "output_dir", id="output-dir-null"),
            pytest.param({"output_dir": ""}, "output_dir", id="output-dir-empty"),
            pytest.param({"output_dir": 5}, "output_dir", id="output-dir-number"),
            # numpy refuses a linspace this long before allocating anything
            pytest.param({"grid": {"nlat": 10**20}},
                         "grid: 100000000000000000000 x 8 x 8 is too large to hold",
                         id="nlat-too-large"),
            # numpy refuses a series this long before allocating anything
            pytest.param({"surrogate": {"overrides": {"n_steps": 10**20}}},
                         "surrogate.overrides.n_steps: 100000000000000000000 steps are too many",
                         id="n-steps-too-large"),
            # numpy cannot allocate one 3-D field, though the grid's weights are small
            pytest.param({"grid": {"nlon": 100000, "nlev": 100000}},
                         "grid: 8 x 100000 x 100000 is too large to hold", id="field-too-large"),
            # numpy refuses the larger ensemble's step normals before allocating anything
            pytest.param({"plan": {"baseline_members": 10**20}},
                         "plan.baseline_members: 100000000000000000000 members of 40 steps are "
                         "too many to hold", id="baseline-members-too-large"),
            pytest.param({"plan": {"n_members": 10**20}},
                         "plan.n_members: 100000000000000000000 members of 40 steps are "
                         "too many to hold", id="members-too-large"),
            # beyond a C long: numpy overflows rather than refusing the shape
            pytest.param({"grid": {"nlon": 1.0e+30}},
                         "grid: 8 x 1000000000000000019884624838656 x 8 is too large to hold",
                         id="nlon-overflows-c-long"),
            # build_grid's own checks
            pytest.param({"grid": {"p_top": 2000}},
                         "grid: pressure bounds require 0 < p_top < p_surface, "
                         "got (2000.0, 1000.0)",
                         id="p-top-below-the-surface"),
            pytest.param({"grid": {"nlat": 2}}, "grid: grid counts too small: nlat=2 (>=4)",
                         id="nlat-too-small"),
            # finite in Tg, not in kg
            pytest.param({"eruption": {"mass": 1e300}}, "eruption.mass", id="mass-overflows-kg"),
            pytest.param({"plan": {"masses": [5.0, 1e300]}}, "plan.masses",
                         id="masses-overflow-kg"),
            # checked before any member steps, not after the first mass (<file> is the config)
            pytest.param({"output_dir": "<file>"}, "output_dir: <file> is not a directory",
                         id="output-dir-is-a-file"),
            pytest.param({"output_dir": "<file>/out"}, "output_dir: <file> is not a directory",
                         id="output-dir-under-a-file"),
            # the file itself
            pytest.param("grid: [unclosed", "cannot read configuration file <file>: while",
                         id="unclosed-flow"),
            # YAML's own conversions raise ValueError: a 13th month, digits beyond the limit
            pytest.param("output_dir: 2020-13-01", "cannot read configuration file <file>: month",
                         id="bad-date"),
            pytest.param("plan: {seed: " + "1" * 5000 + "}",
                         "cannot read configuration file <file>: Exceeds the limit",
                         id="int-beyond-digit-limit"),
            *(pytest.param(case.values[0], f"cannot read configuration file {case.values[1]}",
                           id=case.id) for case in UNREADABLE),
        ],
    )
    def test_malformed_config_exits_2_naming_key(
        self, tmp_path, capsys, monkeypatch, patch, key
    ):
        path = tmp_path / "bad.yaml"
        if isinstance(patch, dict):
            raw = tiny_config_dict(tmp_path)
            for section, value in patch.items():
                if isinstance(value, dict) and isinstance(raw.get(section), dict):
                    value = {**raw[section], **value}
                raw[section] = value
            patch = yaml.safe_dump(raw).replace("<file>", str(path))
        place_input(path, patch, monkeypatch)
        key = key.replace("<file>", str(path))
        ran = []
        # every run, whole-state or an ensemble member, starts from initialize
        monkeypatch.setattr(harness, "initialize", lambda *a, **k: ran.append(a))
        assert main(["experiment", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err
        assert ran == []
        assert list(tmp_path.rglob("*")) == [path]

    @pytest.mark.parametrize("command, bad", [
        *(pytest.param(command, bad, id=f"{command}-{bad}")
          for command in ("simulate", "baseline", "experiment", "bench")
          for bad in ("file", "under-a-file")),
        # the subdirectories experiment writes into, once it has stepped the baseline and a mass
        pytest.param("experiment", "pathways", id="experiment-pathways-a-file"),
        pytest.param("experiment", "snapshots", id="experiment-snapshots-a-file"),
    ])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, bad
    ):
        cfg = write_config(tmp_path, snapshot_days=[1.0])
        if bad in ("file", "under-a-file"):
            out, blocker = (cfg if bad == "file" else cfg / "out"), cfg
        else:
            out = tmp_path / "o5"
            blocker = out / bad
            out.mkdir()
            blocker.write_text("")
        before = sorted(tmp_path.rglob("*"))
        ran = []
        monkeypatch.setattr(harness, "initialize", lambda *a, **k: ran.append(a))
        assert main([command, str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: --out: {blocker} is not a directory\n"
        assert ran == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, name", [
        pytest.param(command, name, id=f"{command}-{name}")
        for command, names in (("simulate", ("series.csv", "pathway.json", "manifest.json")),
                               ("baseline", ("baselines.json", "manifest.json")),
                               ("experiment", ("summary.csv", "manifest.json", "baselines.json")),
                               ("bench", ("bench.csv",)))
        for name in names
    ])
    def test_out_file_that_is_a_directory_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, name
    ):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "o6" / name
        blocker.mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        ran = []
        monkeypatch.setattr(harness, "initialize", lambda *a, **k: ran.append(a))
        assert main([command, str(cfg), "--out", str(tmp_path / "o6")]) == 2
        assert capsys.readouterr().err == f"configuration error: --out: {blocker} is a directory\n"
        assert ran == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name", [
        # the last mass's files, which the run would write last
        pytest.param("pathways/pathway_m10_Ex1_b1.json", id="pathway"),
        pytest.param("snapshots/dag_m10_Ex1_day1.dot", id="snapshot"),
    ])
    def test_experiment_file_under_a_subdirectory_that_is_a_directory_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, name
    ):
        cfg = write_config(tmp_path, snapshot_days=[1.0])
        blocker = tmp_path / "o7" / name
        blocker.mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        ran = []
        monkeypatch.setattr(harness, "initialize", lambda *a, **k: ran.append(a))
        assert main(["experiment", str(cfg), "--out", str(tmp_path / "o7")]) == 2
        assert capsys.readouterr().err == f"configuration error: --out: {blocker} is a directory\n"
        assert ran == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("length", [64, 65, 300])
    def test_experiment_label_over_64_characters_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, length
    ):
        """A label goes into every pathway and snapshot file name.  One of 64 characters runs and
        writes them; a longer one, with which a name or its temporary could pass the 255-byte
        limit, exits 2 naming plan.experiments before any run, with nothing written."""
        label = "L" * length
        plan = {**tiny_config_dict(tmp_path)["plan"], "experiments": {label: [0.5, 0.75]}}
        cfg = write_config(tmp_path, plan=plan, snapshot_days=[1.0])
        ran = []
        initialize = harness.initialize
        monkeypatch.setattr(harness, "initialize",
                            lambda *a, **k: ran.append(a) or initialize(*a, **k))
        status = main(["experiment", str(cfg)])
        out = tmp_path / "out"
        if length == 64:
            assert status == 0, capsys.readouterr().err
            assert (out / "pathways" / f"pathway_m5_{label}_b1.json").is_file()
            assert (out / "snapshots" / f"dag_m10_{label}_day1.dot").is_file()
            return
        assert status == 2
        assert capsys.readouterr().err == (
            f"configuration error: plan.experiments: label {shown(label)} is over 64 characters\n"
        )
        assert ran == []
        assert not out.exists()

    def test_output_dir_file_that_is_a_directory_is_named(self, tmp_path, capsys):
        (tmp_path / "out" / "summary.csv").mkdir(parents=True)
        assert main(["experiment", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: output_dir: {tmp_path / 'out' / 'summary.csv'} is a directory\n"
        )

    def test_experiment_from_a_baseline_does_not_check_baselines_json(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["baseline", str(cfg), "--out", str(tmp_path / "bl")]) == 0
        (tmp_path / "o6" / "baselines.json").mkdir(parents=True)
        baseline = str(tmp_path / "bl" / "baselines.json")
        assert main(["experiment", str(cfg), "--baseline", baseline,
                     "--out", str(tmp_path / "o6")]) == 0
        assert (tmp_path / "o6" / "summary.csv").is_file()

    def test_experiment_without_snapshot_days_does_not_check_snapshots(self, tmp_path):
        """Only the paths a run writes are checked: with no snapshot day, a plain file named
        snapshots stands in no file's way."""
        cfg = write_config(tmp_path)
        (tmp_path / "o8").mkdir()
        (tmp_path / "o8" / "snapshots").write_text("kept")
        assert main(["experiment", str(cfg), "--out", str(tmp_path / "o8")]) == 0
        assert (tmp_path / "o8" / "snapshots").read_text() == "kept"
        assert (tmp_path / "o8" / "summary.csv").is_file()

    def test_export_dot_round_trip(self, tmp_path, capsys):
        pw_path = tmp_path / "pathway.json"
        write_pathway_json(pw_path, tiny_pathway(), "abc")
        dot_path = tmp_path / "snap.dot"
        assert main([
            "export-dot", str(pw_path), "--day", "1.0", "--out", str(dot_path),
        ]) == 0
        assert "digraph" in dot_path.read_text()
        # a day outside the run is bad input, as it is in snapshot_days
        assert main(["export-dot", str(pw_path), "--day", "999"]) == 2
        assert "outside [0, 3]" in capsys.readouterr().err
        for day, step in (("1e308", "inf"), ("-1e308", "-inf")):
            assert main(["export-dot", str(pw_path), f"--day={day}"]) == 2
            err = capsys.readouterr().err
            assert err == (
                f"configuration error: day {float(day)} maps to step {step}, outside [0, 3]\n"
            ), day
        for day in ("nan", "inf", "-inf"):
            assert main(["export-dot", str(pw_path), f"--day={day}"]) == 2
            err = capsys.readouterr().err
            assert err == f"configuration error: day {float(day)} is not a finite number\n", day

    @pytest.mark.parametrize("bad", ["directory", "under-a-file"])
    def test_export_dot_out_that_cannot_be_written_exits_2_before_rendering(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        pw_path = tmp_path / "pathway.json"
        write_pathway_json(pw_path, tiny_pathway(), "abc")
        if bad == "directory":
            out = tmp_path / "adir"
            out.mkdir()
            why = f"{out} is a directory"
        else:
            out = pw_path / "x.dot"
            why = f"{pw_path} is not a directory"
        before = sorted(tmp_path.rglob("*"))
        rendered = []
        monkeypatch.setattr(cli, "export_dot", lambda *a, **k: rendered.append(a) or "")
        assert main(["export-dot", str(pw_path), "--day", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: --out: {why}\n"
        assert rendered == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_export_dot_creates_output_directory(self, tmp_path):
        pw_path = tmp_path / "pathway.json"
        write_pathway_json(pw_path, tiny_pathway(), "abc")
        dot_path = tmp_path / "new" / "dir" / "x.dot"
        assert main(["export-dot", str(pw_path), "--day", "1", "--out", str(dot_path)]) == 0
        assert dot_path.read_text() == export_dot(tiny_pathway(), 1.0)

    # every case has its own id, as in test_malformed_baseline_file_exits_2
    @pytest.mark.parametrize(
        "patch, named",
        [
            pytest.param("{not json", "cannot read pathway file <file>: Expecting",
                         id="{not json-not valid JSON"),
            pytest.param([1, 2], "mapping", id="patch1-mapping"),
            pytest.param({"dt_days": float("inf")}, "'dt_days'", id="patch2-'dt_days'"),
            pytest.param({"dt_days": "0.5"}, "'dt_days'", id="patch3-'dt_days'"),
            pytest.param({"dt_days": 0.0}, "'dt_days'", id="patch4-'dt_days'"),
            pytest.param({"vertices": ["A", "B", 3]}, "'vertices'", id="patch5-'vertices'"),
            pytest.param({"vertices": "ABC"}, "'vertices'", id="patch6-'vertices'"),
            pytest.param({"edges": [["A"]]}, "'edges'", id="patch7-'edges'"),
            # the form before intervals: one '0'/'1' row string per step
            pytest.param({"activation": ["000", "100", "110", "011"], "n_steps": None,
                           "intervals": None},
                         "missing field 'intervals'; the 'activation' row form is no longer read",
                         id="patch8-missing field 'intervals'; the 'activation' row form is no "
                            "longer read"),
            pytest.param({"vertices": ["A", "A", "C"]}, "duplicate vertices",
                         id="patch9-duplicate vertices"),
            pytest.param({"edges": [["A", "B"], ["B", "C"], ["C", "A"]]},
                         "graph contains a cycle",
                         id="patch10-graph contains a cycle"),
            pytest.param({"edges": [["A", "Z"]]}, "references unknown vertex",
                         id="patch11-references unknown vertex"),
            pytest.param({"n_steps": None}, "missing field 'n_steps'",
                         id="patch12-missing field 'n_steps'"),
            pytest.param({"n_steps": 3.0}, "'n_steps'", id="patch13-'n_steps'"),
            pytest.param({"n_steps": "3"}, "'n_steps'", id="patch14-'n_steps'"),
            pytest.param({"n_steps": True}, "'n_steps'", id="patch15-'n_steps'"),
            pytest.param({"n_steps": -1}, "'n_steps'", id="patch16-'n_steps'"),
            pytest.param({"dt_days": True}, "'dt_days' must be a positive number, got True",
                         id="patch17-'dt_days' must be a positive number, got True"),
            pytest.param({"intervals": "1-3"}, "'intervals' must hold 3 lists",
                         id="patch18-'intervals' must hold 3 lists"),
            pytest.param({"intervals": [[[1, 3]], [[2, 4]]]}, "'intervals' must hold 3 lists",
                         id="patch19-'intervals' must hold 3 lists"),
            pytest.param({"intervals": [[[1, 3.0]], [[2, 4]], [[3, 4]]]},
                         "'intervals' of vertex 'A'",
                         id="patch20-'intervals' of vertex 'A'"),
            pytest.param({"intervals": [[[1, 3]], [[2, "4"]], [[3, 4]]]},
                         "'intervals' of vertex 'B'",
                         id="patch21-'intervals' of vertex 'B'"),
            pytest.param({"intervals": [[[1, 3]], [[2, 4]], [[3, True]]]},
                         "'intervals' of vertex 'C'",
                         id="patch22-'intervals' of vertex 'C'"),
            pytest.param({"intervals": [[[1, 3]], [[2, 4]], [[3]]]}, "'intervals' of vertex 'C'",
                         id="patch23-'intervals' of vertex 'C'"),
            pytest.param({"intervals": [[[1, 3]], [2, 4], [[3, 4]]]}, "'intervals' of vertex 'B'",
                         id="patch24-'intervals' of vertex 'B'"),
            pytest.param({"intervals": [[[-1, 3]], [[2, 4]], [[3, 4]]]},
                         "vertex 'A': [-1, 3] starts before step 0",
                         id="patch25-vertex 'A': [-1, 3] starts before step 0"),
            pytest.param({"intervals": [[[1, 3]], [[2, 5]], [[3, 4]]]},
                         "vertex 'B': [2, 5] ends after n_steps + 1 = 4",
                         id="patch26-vertex 'B': [2, 5] ends after n_steps + 1 = 4"),
            pytest.param({"intervals": [[[1, 3]], [[2, 4]], [[3, 3]]]},
                         "vertex 'C': [3, 3] is empty",
                         id="patch27-vertex 'C': [3, 3] is empty"),
            pytest.param({"intervals": [[[3, 1]], [[2, 4]], [[3, 4]]]},
                         "vertex 'A': [3, 1] is empty",
                         id="patch28-vertex 'A': [3, 1] is empty"),
            pytest.param({"intervals": [[[2, 3], [0, 1]], [[2, 4]], [[3, 4]]]},
                         "vertex 'A': [0, 1] does not start after the previous interval's end 3",
                         id="patch29-vertex 'A': [0, 1] does not start after the previous "
                            "interval's end 3"),
            pytest.param({"intervals": [[[1, 3]], [[0, 2], [1, 4]], [[3, 4]]]},
                         "vertex 'B': [1, 4] does not start after the previous interval's end 2",
                         id="patch30-vertex 'B': [1, 4] does not start after the previous "
                            "interval's end 2"),
            pytest.param({"intervals": [[[1, 3]], [[2, 4]], [[0, 1], [1, 4]]]},
                         "vertex 'C': [1, 4] does not start after the previous interval's end 1",
                         id="patch31-vertex 'C': [1, 4] does not start after the previous "
                            "interval's end 1"),
            pytest.param({"edges": [["A", "B"], ["A", "B"]]}, "duplicate edges",
                         id="patch32-duplicate edges"),
            # too big for numpy to shape, so nothing is allocated
            pytest.param({"n_steps": 2**62}, "'n_steps' 4611686018427387904 is too large",
                         id="patch33-'n_steps' 4611686018427387904 is too large"),
            pytest.param({"n_steps": 10**30},
                         "'n_steps' 1000000000000000000000000000000 is too large",
                         id="patch34-'n_steps' 1000000000000000000000000000000 is too large"),
            # an integer beyond the float range
            pytest.param({"dt_days": 10**400}, "'dt_days' must be a positive number",
                         id="patch35-'dt_days' must be a positive number"),
            # export_dot quotes each id, which these would end early
            pytest.param({"vertices": ['A"B', "B", "C"]}, "'vertices'", id="quote-in-vertex"),
            pytest.param({"vertices": ["A\\", "B", "C"]}, "'vertices'",
                         id="trailing-backslash-in-vertex"),
            # beyond the parser's limit on the digits of an integer
            pytest.param({"n_steps": "<long>"},
                         "cannot read pathway file <file>: Exceeds the limit",
                         id="int-beyond-digit-limit"),
            *(pytest.param(case.values[0], f"cannot read pathway file {case.values[1]}",
                           id=case.id) for case in UNREADABLE),
        ],
    )
    def test_malformed_pathway_file_exits_2(self, tmp_path, capsys, monkeypatch, patch, named):
        path = tmp_path / "pathway.json"
        if isinstance(patch, dict):
            doc = pathway_to_dict(tiny_pathway(), "abc")
            doc.update(patch)
            # None marks a field left out of the file
            doc = {k: v for k, v in doc.items() if v is not None}
            patch = json.dumps(doc).replace('"<long>"', "1" * 5000)
        elif not isinstance(patch, (str, bytes)):
            patch = json.dumps(patch)
        place_input(path, patch, monkeypatch)
        assert main(["export-dot", str(path), "--day", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and named.replace("<file>", str(path)) in err

    def test_bench_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main([
            "bench", str(cfg), "--counts", "1,2", "--repetitions", "1", "--steps", "2",
        ]) == 0
        text = (tmp_path / "out" / "bench.csv").read_text()
        assert text.startswith("qoi_count,")
        assert len(text.strip().split("\n")) == 3

    def test_bench_bad_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bench", str(cfg), "--counts", "7,x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--counts" in err and "'x'" in err
        assert not (tmp_path / "out").exists()

    def test_bench_count_below_1_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        ran = []
        monkeypatch.setattr(harness, "run_member", lambda *a, **k: ran.append(a))
        assert main(["bench", str(cfg), "--counts", "7,-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--counts" in err and "'-3'" in err
        assert ran == []
        assert not (tmp_path / "out").exists()

    # numpy refuses these shapes without allocating; never try a size it could allocate
    @pytest.mark.parametrize("flag", ["--steps", "--counts"])
    def test_bench_series_too_large_to_hold_exits_2_before_any_run(self, tmp_path, capsys,
                                                                    monkeypatch, flag):
        cfg = write_config(tmp_path)
        ran = []
        monkeypatch.setattr(harness, "run_member", lambda *a, **k: ran.append(a))
        assert main(["bench", str(cfg), flag, "100000000000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --steps:") and "too many" in err
        assert "100000000000000000000" in err
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_bench_zero_repetitions_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bench", str(cfg), "--repetitions", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--repetitions" in err
        assert main(["bench", str(cfg), "--steps", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: --steps must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_simulate_negative_member_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg), "--member", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--member" in err
        assert not (tmp_path / "out").exists()

    # 1e+300 Tg is finite, but not in kg
    @pytest.mark.parametrize("mass", ["nan", "inf", "1e+300"])
    def test_simulate_non_finite_mass_exits_2(self, tmp_path, capsys, monkeypatch, mass):
        cfg = write_config(tmp_path)
        ran = []
        monkeypatch.setattr(cli, "canonical_series", lambda *a, **k: ran.append(a))
        assert main(["simulate", str(cfg), "--mass", mass]) == 2
        err = capsys.readouterr().err
        assert err == (
            "configuration error: --mass: "
            f"eruption mass must be a finite number >= 0, also in kg, got {mass}\n"
        )
        assert ran == []
        assert not (tmp_path / "out").exists()

    # 300 examples draw each of the 7 x 14 (flag, value) pairs
    @settings(max_examples=300, deadline=None)
    @given(flag=st.sampled_from(sorted(NUMERIC_FLAGS)), value=st.sampled_from(HOSTILE_CONFIG))
    def test_hostile_numeric_flag_is_named_or_runs(self, tmp_path_factory, flag, value):
        """A numeric flag given a hostile value of the config property, as text, either exits 2
        with a message under 200 characters that names the flag, or its command runs."""
        tmp = tmp_path_factory.mktemp("flag")
        command = NUMERIC_FLAGS[flag]
        if command == "export-dot":
            source = tmp / "pathway.json"
            write_pathway_json(source, tiny_pathway(), "abc")
            argv = [command, str(source)]
        else:
            argv = [command, str(write_config(tmp)), "--out", str(tmp / "o")]
        argv.append(f"{flag}={value}")
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()), pytest.MonkeyPatch.context() as mp:
            # bench's run is not stepped: a valid --repetitions of 10**30 would never end
            mp.setattr(cli, "bench_overhead", lambda *args: [])
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse's own errors
                status = exc.code
        if status == 2:
            message = err.getvalue().splitlines()[-1]
            assert flag[2:] in message and len(message) < 200, message
        else:
            assert status == 0, err.getvalue()

    def test_simulate_mass_outside_the_injection_levels_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # every configured mass is 0, so parse_config has no injection to check on 8 levels
        cfg = write_config(tmp_path, eruption={"mass": 0, "injection_levels": [1.5, 1.6]},
                           plan={"masses": [0], "n_members": 2, "baseline_members": 2})
        ran = []
        monkeypatch.setattr(harness, "initialize", lambda *a, **k: ran.append(a))
        assert main(["simulate", str(cfg), "--mass", "5"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: --mass: injection selection is empty\n"
        assert ran == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["dt-nested-900-deep", "nlat-1e300", "300-masses-collide",
                                      "baseline-key-3000-long", "label-3000-long",
                                      "label-3000-long-bad-pair", "experiments-3000-long",
                                      "member-4000-digits", "counts-3000-long",
                                      "unknown-key-3000-long", "edge-endpoint-3000-long"])
    def test_bad_value_is_echoed_short(self, tmp_path, capsys, case):
        if case == "dt-nested-900-deep":
            # a value nested 900 deep, which the JSON parser still reads
            path = tmp_path / "pathway.json"
            doc = pathway_to_dict(tiny_pathway(), "abc")
            doc["dt_days"] = json.loads("[" * 900 + "0.5" + "]" * 900)
            path.write_text(json.dumps(doc))
            argv, key = ["export-dot", str(path), "--day", "1"], "pathway: 'dt_days'"
        elif case.startswith("label-3000-long"):
            # a label of 3,000 characters with one that no label may hold
            pair = "bad" if case.endswith("bad-pair") else [0.5, 0.75]
            plan = {**tiny_config_dict(tmp_path)["plan"], "experiments": {"L" * 2999 + ",": pair}}
            argv = ["experiment", str(write_config(tmp_path, plan=plan))]
            key = "plan.experiments: label 'LLLLLLLLLL"
        elif case == "experiments-3000-long":
            argv = ["experiment", str(write_config(tmp_path)), "--experiments", "x" * 3000]
            key = "--experiments: unknown labels ['xxxxxxxxxx"
        elif case == "member-4000-digits":
            argv = ["simulate", str(write_config(tmp_path)), "--member=-" + "9" * 4000]
            key = "--member must be >= 0, got -9999999999"
        elif case == "counts-3000-long":
            argv = ["bench", str(write_config(tmp_path)), "--counts", "x" * 3000]
            key = "--counts: 'xxxxxxxxxx"
        elif case == "unknown-key-3000-long":
            argv = ["experiment", str(write_config(tmp_path, **{"k" * 3000: 1}))]
            key = "unknown keys: kkkkkkkkkk"
        elif case == "edge-endpoint-3000-long":
            path = tmp_path / "pathway.json"
            doc = pathway_to_dict(tiny_pathway(), "abc")
            doc["edges"].append(["A", "Z" * 3000])
            path.write_text(json.dumps(doc))
            argv = ["export-dot", str(path), "--day", "1"]
            key = "pathway: 'vertices' and 'edges': edge ('A', 'ZZZZZZZZZZ"
        elif case == "nlat-1e300":
            argv = ["experiment", str(write_config(tmp_path, grid={"nlat": 1.0e+300}))]
            key = "grid: 1000000000000000052504760255204420248704468581108159154915854115511802"
        elif case == "300-masses-collide":
            masses = [float(m) for m in range(1, 300)] + [1.0000001]
            plan = {"masses": masses, "n_members": 2, "baseline_members": 2}
            argv = ["experiment", str(write_config(tmp_path, plan=plan))]
            key = "plan.masses must differ in the {:g} form that names output files, got [1.0, "
        else:
            # a baselines file's QOI id, named in every message about its entry
            path = tmp_path / "baselines.json"
            path.write_text(json.dumps({"x" * 3000: "bad"}))
            argv = ["simulate", str(write_config(tmp_path)), "--baseline", str(path)]
            key = "baseline 'xxxxxxxxxx"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}")
        assert err.count("\n") == 1 and len(err) < 200, err

    def test_simulate_negative_mass_names_option(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg), "--mass", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --mass: eruption mass must be")
        assert not (tmp_path / "out").exists()

    def test_simulate_failure_names_its_member(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        make_rng = harness.make_rng
        monkeypatch.setattr(harness, "make_rng", lambda seed: NanDrawsFrom(make_rng(seed), 7))
        assert main(["simulate", str(cfg), "--member", "3"]) == 1
        seed = derive_seed(11, "eruption", 3).seed
        assert capsys.readouterr().err == (
            f"error: member 3 (mass 10.0 Tg, seed {seed}) failed: "
            "non-finite T(e) at step 7\n"
        )
        assert not (tmp_path / "out").exists()
