import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapticauth import (
    DatasetManifest,
    DataError,
    EmptyTraceError,
    ForceTrace,
    ManifestEntry,
    SchemaError,
    SynthConfig,
    TraceDataset,
    TraceOrderingError,
    load_dataset,
    parse_trace_csv,
    save_dataset,
    synth_dataset,
    write_trace_csv,
)
from hapticauth import dataset
from hapticauth.dataset import VARIANTS, atomic_write
from hapticauth.errors import ConfigError, HapticAuthError
from hapticauth.features import extract_features

from conftest import make_trace
from oracles import CsvRowError, csv_parse_rows, csv_write_rows


class TestParseTraceCsv:
    def test_three_rows(self):
        text = "timestamp,fx,fy,fz\n0.0,1.0,2.0,3.0\n0.004,1.5,2.5,3.5\n0.008,-1.0,0.25,0.125\n"
        tr = parse_trace_csv(text, user_id="u01", task_id="a", trial_index=0)
        assert len(tr) == 3
        assert tr.sample_rate == 250.0
        assert tr.user_id == "u01" and tr.task_id == "a" and tr.trial_index == 0
        np.testing.assert_array_equal(tr.timestamps, np.float32([0.0, 0.004, 0.008]))
        np.testing.assert_array_equal(
            tr.forces,
            np.float32([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5], [-1.0, 0.25, 0.125]]),
        )

    def test_header_only_is_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            parse_trace_csv("timestamp,fx,fy,fz\n", user_id="u", task_id="a", trial_index=0)

    def test_nan_row_names_index(self):
        text = "timestamp,fx,fy,fz\n0.0,1,1,1\n0.004,1,1,NaN\n"
        with pytest.raises(DataError, match="row 1"):
            parse_trace_csv(text, user_id="u", task_id="a", trial_index=0)

    @pytest.mark.parametrize("row", ["0,1_0,2,3", "0,1_0,\u0661\u0662, 3", "0,1,\u0661\u0662,3",
                                     "0,1,2,3\u00a0"])
    def test_refuses_tokens_no_writer_produces(self, row):
        # float() takes digit separators, non-ASCII digits and Unicode spaces
        with pytest.raises(DataError, match=r"row 0: non-numeric value \(.*'_' or non-ASCII"):
            parse_trace_csv(f"timestamp,fx,fy,fz\n{row}\n", user_id="u", task_id="a",
                            trial_index=0)

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            parse_trace_csv("time,fx,fy,fz\n0,1,1,1\n", user_id="u", task_id="a", trial_index=0)

    def test_non_monotonic_timestamps(self):
        text = "timestamp,fx,fy,fz\n0.0,1,1,1\n0.004,1,1,1\n0.004,1,1,1\n"
        with pytest.raises(TraceOrderingError):
            parse_trace_csv(text, user_id="u", task_id="a", trial_index=0)

    def test_non_numeric_row(self):
        text = "timestamp,fx,fy,fz\n0.0,1,oops,1\n"
        with pytest.raises(DataError, match="row 0"):
            parse_trace_csv(text, user_id="u", task_id="a", trial_index=0)

    def test_undecodable_byte_names_row(self):
        data = b"timestamp,fx,fy,fz\n0.0,1,2,3\n0.004,1,2,3\xff\n"
        with pytest.raises(DataError, match=r"row 1: non-numeric value"):
            parse_trace_csv(data, user_id="u", task_id="a", trial_index=0)

    def test_accepts_bytes(self):
        data = b"timestamp,fx,fy,fz\n0.0,1,2,3\n"
        tr = parse_trace_csv(data, user_id="u", task_id="a", trial_index=0)
        assert len(tr) == 1


class TestWriteTraceCsv:
    def test_line_count(self):
        rng = np.random.default_rng(0)
        tr = make_trace(rng, n=3)
        text = write_trace_csv(tr).decode("utf-8")
        assert text.count("\n") == 4
        assert text.startswith("timestamp,fx,fy,fz\n")

    def test_roundtrip_random_traces(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(1, 200))
            forces = (rng.normal(0, 50, size=(n, 3)) * 10.0 ** rng.integers(-6, 4)).astype(np.float32)
            tr = ForceTrace(
                timestamps=(np.arange(n) / 250.0).astype(np.float32),
                forces=forces, user_id="u", task_id="a", trial_index=trial,
            )
            back = parse_trace_csv(write_trace_csv(tr), user_id="u", task_id="a",
                                   trial_index=trial)
            np.testing.assert_array_equal(back.timestamps, tr.timestamps)
            np.testing.assert_array_equal(back.forces, tr.forces)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           stamps=st.lists(st.floats(0, allow_infinity=False, width=32), min_size=1,
                           max_size=40, unique=True),
           user=st.text("abcuz019_-", min_size=1, max_size=5),
           task=st.text("abcdefg", min_size=1, max_size=3),
           trial=st.integers(0, 10**6), variant=st.sampled_from(VARIANTS))
    def test_roundtrip_is_bit_exact(self, data, stamps, user, task, trial, variant):
        f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
        forces = data.draw(st.lists(st.tuples(f32, f32, f32), min_size=len(stamps),
                                    max_size=len(stamps)))
        tr = ForceTrace(timestamps=np.float32(sorted(stamps)), forces=np.float32(forces),
                        user_id=user, task_id=task, trial_index=trial, variant=variant)
        back = parse_trace_csv(write_trace_csv(tr), user_id=user, task_id=task,
                               trial_index=trial, variant=variant)
        assert back.key == tr.key
        # compare bit patterns: -0.0 and subnormals must survive too
        np.testing.assert_array_equal(back.timestamps.view(np.uint32), tr.timestamps.view(np.uint32))
        np.testing.assert_array_equal(back.forces.view(np.uint32), tr.forces.view(np.uint32))

    def test_empty_trace_unconstructible(self):
        with pytest.raises(EmptyTraceError):
            ForceTrace(timestamps=np.zeros(0), forces=np.zeros((0, 3)),
                       user_id="u", task_id="a", trial_index=0)


# float32 values whose printed forms are the writer's hard cases: signed
# zeros, subnormals, the largest finite magnitudes and exponent notation
EDGE_F32 = [0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.1754942e-38, 1.1754944e-38, 3.4028235e38,
            -3.4028235e38, 3.4e38, 1e-5, -2.5e-7, 1e16, 123456789.0, 0.1, 1.0]
F32 = st.one_of(st.sampled_from([float(np.float32(v)) for v in EDGE_F32]),
                st.floats(width=32, allow_nan=False, allow_infinity=False))

# tokens that float() may or may not accept, padded, underscored and
# non-finite spellings among them; "3.5e38" and "-1e39" overflow float32 only
CSV_TOKENS = st.one_of(
    st.sampled_from(["1.5", " 2.25 ", "\t-3", "1_0", "+.5", "1.", "1e-3", "0x10", "", "abc",
                     "nan", "NaN", "-nan", "inf", "-Infinity", "infinity", "1e999", "3.5e38",
                     "-1e39", "1e-50", "-0.0", "١٢", "1 5", "--1", "1e", "_1", "1__0", "½", "nanx"]),
    F32.map(repr),
)


def csv_outcome(parse):
    """(exception class name, message) if `parse` raises, else the (T, 4) bits
    of the parsed trace; the reference's rows go through ForceTrace first, as
    the library's do, so that both meet the same trace checks."""
    try:
        tr = parse()
    except (HapticAuthError, CsvRowError) as exc:
        return getattr(exc, "kind", type(exc).__name__), str(exc)
    if isinstance(tr, ForceTrace):
        return np.column_stack([tr.timestamps, tr.forces]).view(np.uint32).tolist()
    return csv_outcome(lambda: ForceTrace(timestamps=tr[:, 0], forces=tr[:, 1:], user_id="u",
                                          task_id="a", trial_index=0))


class TestCsvMatchesRowReference:
    """The bulk writer and parser against the row-by-row ones in oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), stamps=st.lists(F32.map(abs), min_size=1, max_size=30, unique=True))
    def test_writer_bytes_identical(self, data, stamps):
        forces = data.draw(st.lists(st.tuples(F32, F32, F32), min_size=len(stamps),
                                    max_size=len(stamps)))
        tr = ForceTrace(timestamps=np.float32(sorted(stamps)), forces=np.float32(forces),
                        user_id="u", task_id="a", trial_index=0)
        assert write_trace_csv(tr) == csv_write_rows(tr.timestamps, tr.forces)

    def test_writer_prints_widened_float32(self):
        tr = ForceTrace(timestamps=np.float32([0.0, 1e-40]),
                        forces=np.float32([[0.1, -0.0, 3.4e38]] * 2),
                        user_id="u", task_id="a", trial_index=0)
        assert write_trace_csv(tr).decode("utf-8").splitlines() == [
            "timestamp,fx,fy,fz", "0.0,0.10000000149011612,-0.0,3.3999999521443642e+38",
            "9.99994610111476e-41,0.10000000149011612,-0.0,3.3999999521443642e+38"]

    @pytest.mark.parametrize("text", [
        "timestamp,fx,fy,fz\n\n0,1,2,3\n  \n0.5,1,2,3\n",
        "timestamp,fx,fy,fz\r\n0,1,2,3\r\n0.5,1,2,3\r\n",
        " timestamp,fx,fy,fz \n 0 , 1,2 ,\t3\n",
        "timestamp,fx,fy,fz\n0,1_0,2,3\n",
        "timestamp,fx,fy,fz\n0,1,2,3\n0.5,1,\u0661\u0662,3\n",  # Arabic-Indic digits
        "timestamp,fx,fy,fz\n0,1,2,3\n0.5,nan,2,3\n",
        "timestamp,fx,fy,fz\n0,inf,2,3\n",
        "timestamp,fx,fy,fz\n0,-Infinity,2,3\n",
        "timestamp,fx,fy,fz\n0,1,2,3\n1,1,2\n2,x,2,3\n",
        "timestamp,fx,fy,fz\n0,1,2,3\n1,x,2,3\n2,1,2\n",
        "timestamp,fx,fy,fz\n0,1,2,3,4\n1,nan,2,3\n",
        "timestamp,fx,fy,fz\n0,1,2\n1,2,3,4,5\n",  # the right number of values in all
        "timestamp,fx,fy,fz\n0,nan,2,3\n1,x,2,3\n",
        "timestamp,fx,fy,fz\n0,1e39,2,3\n",
        "timestamp,fx,fy,fz\n0,1,2,3\n0,1,2,3\n",
        "timestamp,fx,fy,fz\n\n",
        "timestamp,fx\n0,1\n",
        "",
    ])
    def test_parser_matches_on_examples(self, text):
        self._assert_same(text)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8), eol=st.sampled_from(["\n", "\r\n", "\r"]),
           header=st.sampled_from(["timestamp,fx,fy,fz"] * 3 + [" timestamp,fx,fy,fz\t", "t,fx"]))
    def test_parser_matches_on_drawn_files(self, data, n, eol, header):
        lines = [header]
        for i in range(n):
            if data.draw(st.integers(0, 3)) == 0:
                lines.append(data.draw(st.sampled_from(["", "  ", "\t"])))
            # most rows are well formed, with an increasing timestamp, so
            # that a file's first bad row is often past its first row
            width, tokens = data.draw(st.sampled_from([(4, F32.map(repr))] * 6 + [
                (4, CSV_TOKENS), (4, CSV_TOKENS), (3, CSV_TOKENS), (5, CSV_TOKENS)]))
            stamp = repr(i * 0.004)
            if tokens is CSV_TOKENS:
                stamp = data.draw(st.sampled_from([stamp, f" {i} "]) | CSV_TOKENS)
            lines.append(",".join([stamp, *data.draw(st.lists(tokens, min_size=width - 1,
                                                            max_size=width - 1))]))
        self._assert_same(eol.join(lines) + data.draw(st.sampled_from(["", eol])))

    @staticmethod
    def _assert_same(text):
        with np.errstate(over="ignore"):
            expected = csv_outcome(lambda: csv_parse_rows(text))
            for data in (text, text.encode("utf-8")):
                assert csv_outcome(lambda: parse_trace_csv(data, user_id="u", task_id="a",
                                                           trial_index=0)) == expected


class TestForceTraceInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            ForceTrace(timestamps=np.float32([0.0]), forces=np.float32([[np.inf, 0, 0]]),
                       user_id="u", task_id="a", trial_index=0)

    def test_rejects_bad_variant(self):
        with pytest.raises(DataError):
            ForceTrace(timestamps=np.float32([0.0]), forces=np.float32([[0, 0, 0]]),
                       user_id="u", task_id="a", trial_index=0, variant="smoothed")

    @pytest.mark.parametrize("rate", [0.0, -250.0, float("nan"), float("inf")])
    def test_rejects_bad_sample_rate(self, rate):
        # save_dataset would write it into a manifest that cannot be loaded
        with pytest.raises(DataError, match="sample_rate"):
            ForceTrace(timestamps=np.float32([0.0]), forces=np.float32([[0, 0, 0]]),
                       user_id="u", task_id="a", trial_index=0, sample_rate=rate)


    @pytest.mark.parametrize("label", ["", ".", "..", "../../pwned/u01", "a/b", "a\\b", "a\0b"])
    @pytest.mark.parametrize("field", ["user_id", "task_id"])
    def test_rejects_labels_that_cannot_name_a_file(self, field, label):
        # the labels build trace, checkpoint and report file names
        labels = {"user_id": "u", "task_id": "a", field: label}
        with pytest.raises(DataError, match="cannot name a file"):
            ForceTrace(timestamps=np.float32([0.0]), forces=np.float32([[0, 0, 0]]),
                       trial_index=0, **labels)


class TestManifestAndLoading:
    def test_duplicate_entries_rejected(self):
        e = ManifestEntry(path="x.csv", user="u", task="a", trial=0, variant="raw")
        with pytest.raises(DataError):
            DatasetManifest(entries=[e, e])

    def test_manifest_json_roundtrip(self, tmp_path):
        entries = [ManifestEntry(path=f"t{i}.csv", user="u", task="a", trial=i, variant="raw")
                   for i in range(3)]
        m = DatasetManifest(entries=entries, sample_rate=250.0)
        p = tmp_path / "manifest.json"
        m.save(p)
        m2 = DatasetManifest.load(p)
        assert m2.entries == entries
        assert m2.sample_rate == 250.0

    @pytest.mark.parametrize("rate", ["0", "-250", "NaN", "Infinity", "\"fast\"", "null", "true"])
    def test_bad_sample_rate_rejected(self, rate):
        # a zero rate would zero 12 of the 13 feature channels
        with pytest.raises(SchemaError, match="sample_rate"):
            DatasetManifest.from_json(f'{{"sample_rate": {rate}, "entries": []}}')

    @pytest.mark.parametrize("entries", [
        '5', '[5]', '[["t.csv", "u", "a", 0, "raw"]]',
        '[{"path": "t.csv", "user": 1, "task": "a", "trial": 0, "variant": "raw"}]',
        '[{"path": "t.csv", "user": "u", "task": "a", "trial": "0", "variant": "raw"}]',
        '[{"path": "t.csv", "user": "u", "task": "a", "trial": 0}]',
    ], ids=["int", "int-entry", "list-entry", "int-user", "str-trial", "no-variant"])
    def test_entries_must_be_objects_of_typed_fields(self, entries):
        with pytest.raises(SchemaError, match="manifest"):
            DatasetManifest.from_json(f'{{"sample_rate": 250, "entries": {entries}}}')

    def test_load_dataset_counts_match_manifest(self, tmp_path):
        rng = np.random.default_rng(2)
        traces = [make_trace(rng, n=8, user=f"u0{u}", task=t, trial=k)
                  for u in (1, 2) for t in ("a", "b") for k in range(3)]
        manifest = save_dataset(TraceDataset(traces), tmp_path)
        assert len(manifest) == 12
        ds = load_dataset(manifest, tmp_path)
        assert len(ds) == len(manifest)
        assert ds.users == ["u01", "u02"]
        assert ds.tasks == ["a", "b"]

    @pytest.mark.parametrize("text, error", [
        ("timestamp,fx,fy,fz\n", EmptyTraceError),
        ("timestamp,fx,fy,fz\n0,1,1,1\n0,1,1,1\n", TraceOrderingError),
        ("time,fx,fy,fz\n0,1,1,1\n", SchemaError),
    ])
    def test_load_dataset_keeps_error_class(self, tmp_path, text, error):
        path = tmp_path / "t.csv"
        path.write_text(text)
        manifest = DatasetManifest(entries=[ManifestEntry(path="t.csv", user="u", task="a",
                                                          trial=0, variant="raw")])
        with pytest.raises(error, match=re.escape(str(path))) as info:
            load_dataset(manifest, tmp_path)
        assert type(info.value) is error

    def test_undecodable_byte_names_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"timestamp,fx,fy,fz\n0,1,1,1\n0.004,1,1\xff,1\n")
        manifest = DatasetManifest(entries=[ManifestEntry(path="t.csv", user="u", task="a",
                                                          trial=0, variant="raw")])
        with pytest.raises(DataError, match=re.escape(f"{path}: row 1: non-numeric")) as info:
            load_dataset(manifest, tmp_path)
        assert type(info.value) is DataError

    def test_manifest_rate_is_the_traces_rate(self, tmp_path):
        rng = np.random.default_rng(3)
        traces = [make_trace(rng, n=16, trial=k, rate=500.0) for k in range(2)]
        save_dataset(TraceDataset(traces), tmp_path)
        manifest = DatasetManifest.load(tmp_path / "manifest.json")
        assert manifest.sample_rate == 500.0
        for before, after in zip(traces, load_dataset(manifest, tmp_path)):
            assert after.sample_rate == 500.0
            np.testing.assert_array_equal(extract_features(after.forces, after.sample_rate),
                                          extract_features(before.forces, before.sample_rate))

    def test_mixed_rates_rejected_before_writing(self, tmp_path):
        rng = np.random.default_rng(4)
        traces = [make_trace(rng, trial=0, rate=250.0), make_trace(rng, trial=1, rate=500.0)]
        with pytest.raises(DataError, match="sample rates"):
            save_dataset(TraceDataset(traces), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_traces_sharing_a_file_rejected_before_writing(self, tmp_path):
        rng = np.random.default_rng(5)
        traces = [make_trace(rng, user="u_1", task="a"), make_trace(rng, user="u", task="1_a")]
        message = re.escape("('u_1', 'a', 0, 'raw') and ('u', '1_a', 0, 'raw')")
        with pytest.raises(DataError, match=message):
            save_dataset(TraceDataset(traces), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_manifest(self, tmp_path):
        ds = load_dataset(DatasetManifest(entries=[]), tmp_path)
        assert len(ds) == 0

    def test_bad_path_named(self, tmp_path):
        m = DatasetManifest(entries=[ManifestEntry(path="nope.csv", user="u", task="a",
                                                   trial=0, variant="raw")])
        with pytest.raises(DataError, match="nope.csv"):
            load_dataset(m, tmp_path)

    def test_invalid_file_named(self, tmp_path):
        (tmp_path / "bad.csv").write_text("not,a,header\n")
        m = DatasetManifest(entries=[ManifestEntry(path="bad.csv", user="u", task="a",
                                                   trial=0, variant="raw")])
        with pytest.raises(DataError, match="bad.csv"):
            load_dataset(m, tmp_path)

    def test_paper_shaped_manifest_cardinality(self, tmp_path):
        # 15 users x 7 tasks x 120 trials, written and read back through files
        cfg = SynthConfig(num_users=15, trials_per_task=120, seed=3,
                          duration_range=(0.02, 0.03))
        ds = synth_dataset(cfg)
        assert len(ds) == 12600
        out = tmp_path / "paper_shape"
        manifest = save_dataset(ds, out)
        assert len(manifest) == 12600
        loaded = load_dataset(manifest, out)
        assert len(loaded) == len(manifest)


class TestSynthDataset:
    def test_deterministic(self):
        cfg = SynthConfig(num_users=2, tasks=("a",), trials_per_task=3, seed=42,
                          duration_range=(0.1, 0.2))
        d1 = synth_dataset(cfg)
        d2 = synth_dataset(cfg)
        assert len(d1) == len(d2)
        for a, b in zip(d1, d2):
            assert a.key == b.key
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.forces, b.forces)

    @pytest.mark.parametrize("kwargs", [
        {"num_users": 1}, {"num_users": 2.5}, {"num_users": True},
        {"trials_per_task": 0}, {"trials_per_task": True}, {"seed": -1}, {"seed": 1.0},
        {"tasks": ()}, {"tasks": ("a", "a")},
        {"duration_range": (0.0, 1.0)}, {"duration_range": (0.5, 0.1)},
        {"duration_range": (1.0, math.inf)}, {"duration_range": (math.nan, 1.0)},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    def test_tremor_spectra_separate_users(self, monkeypatch):
        # one user draws a weak tremor, the other a strong one in a different band;
        # the mean |fz| power spectra must differ measurably at the tremor frequency
        monkeypatch.setitem(dataset.SIGNATURE_RANGES, "tremor_amp", (1e-6, 1.2))
        monkeypatch.setitem(dataset.SIGNATURE_RANGES, "noise_std", (0.01, 0.011))
        cfg = SynthConfig(
            num_users=2, tasks=("a",), trials_per_task=12, seed=9,
            duration_range=(1.0, 1.0000001),
        )
        ds = synth_dataset(cfg)
        spectra = {}
        for user in ds.users:
            powers = []
            for tr in ds.subset(user_id=user):
                fz = tr.forces[:, 2].astype(np.float64)
                powers.append(np.abs(np.fft.rfft(fz - fz.mean())) ** 2)
            spectra[user] = np.mean(powers, axis=0)
        n = len(ds.traces[0])
        freqs = np.fft.rfftfreq(n, d=1.0 / 250.0)
        band = (freqs >= 3.0) & (freqs <= 14.0)
        p1, p2 = (spectra[u][band] for u in ds.users)
        ratio = np.maximum(p1, p2) / np.minimum(p1 + 1e-12, p2 + 1e-12)
        assert ratio.max() > 5.0

    def test_paper_shape_count(self):
        cfg = SynthConfig(num_users=15, trials_per_task=120, seed=1,
                          duration_range=(0.02, 0.03))
        ds = synth_dataset(cfg)
        assert len(ds) == 120 * 7 * 15
        assert len(ds.users) == 15 and len(ds.tasks) == 7

    def test_generated_traces_satisfy_invariants(self):
        # >= 1,000 traces checked explicitly
        cfg = SynthConfig(num_users=4, tasks=("a", "b", "c", "d", "e"),
                          trials_per_task=50, seed=17, duration_range=(0.05, 0.1))
        ds = synth_dataset(cfg)
        assert len(ds) == 1000
        for tr in ds:
            assert len(tr) >= 4
            assert np.isfinite(tr.timestamps).all() and np.isfinite(tr.forces).all()
            assert (np.diff(tr.timestamps) > 0).all()
            assert tr.variant == "raw"

    def test_distinct_users_get_distinct_parameters(self):
        cfg = SynthConfig(num_users=5, tasks=("a",), trials_per_task=4, seed=0,
                          duration_range=(0.3, 0.4))
        ds = synth_dataset(cfg)
        # mean |fz| differs across users because press force is stratified
        means = [float(np.abs(np.concatenate(
            [tr.forces[:, 2] for tr in ds.subset(user_id=u)])).mean()) for u in ds.users]
        assert len(set(np.round(means, 3))) == len(means)


class TestAtomicWrite:
    def test_failure_mid_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier")
        with pytest.raises(OSError, match="disk full"):
            with atomic_write(path) as fh:
                fh.write(b"half of the new")
                raise OSError("disk full")
        assert path.read_bytes() == b"earlier"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_failed_save_dataset_keeps_earlier_manifest(self, tmp_path, monkeypatch):
        def corpus(seed, rate):
            rng = np.random.default_rng(seed)
            return TraceDataset(make_trace(rng, n=6, user=user, task=task, rate=rate)
                                for user in ("u01", "u02") for task in "abcdefg")

        save_dataset(corpus(1, 250.0), tmp_path)
        earlier = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        move, moved = os.replace, []

        def fail_on_third(src, dst):
            moved.append(Path(dst).name)
            if len(moved) == 3:
                raise OSError("disk full")
            move(src, dst)

        # the third CSV is written in full, then fails as it is moved into
        # place; the new manifest would differ from the earlier one in its rate
        monkeypatch.setattr(os, "replace", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(corpus(2, 500.0), tmp_path)
        monkeypatch.undo()
        assert moved[2].endswith(".csv")
        assert (tmp_path / "manifest.json").read_bytes() == earlier["manifest.json"]
        assert (tmp_path / moved[2]).read_bytes() == earlier[moved[2]]
        assert sorted(os.listdir(tmp_path)) == sorted(earlier)
