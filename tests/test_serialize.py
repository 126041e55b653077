import json

import numpy as np
import pytest

from mgctm.baselines import LdaModel
from mgctm.errors import CorpusFormatError
from mgctm.inference import fit
from mgctm.model import (
    FitReport,
    HiddenAssignments,
    HyperConfig,
    random_model_params,
    sample_corpus,
)
from mgctm import serialize
from mgctm.serialize import (
    FORMAT_VERSION,
    load_hidden,
    load_lda,
    load_model,
    save_hidden,
    save_lda,
    save_model,
)


def params_fixture():
    return random_model_params(2, 3, 2, 7, seed=21)


class TestModelRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        params = params_fixture()
        path = str(tmp_path / "model.json")
        save_model(params, path)
        loaded, report = load_model(path)
        assert report is None
        np.testing.assert_array_equal(loaded.pi, params.pi)
        np.testing.assert_array_equal(loaded.gamma, params.gamma)
        np.testing.assert_array_equal(loaded.local_priors, params.local_priors)
        np.testing.assert_array_equal(loaded.global_prior, params.global_prior)
        np.testing.assert_array_equal(loaded.local_topics, params.local_topics)
        np.testing.assert_array_equal(loaded.global_topics, params.global_topics)

    def test_embedded_report_round_trip(self, tmp_path):
        params = params_fixture()
        report = FitReport(
            elbo_trace=[-10.5, -9.25, -9.1],
            iterations_run=2,
            converged=True,
            wall_time=3.5,
        )
        path = str(tmp_path / "model.json")
        save_model(params, path, report=report)
        _, loaded = load_model(path)
        assert loaded.elbo_trace == [-10.5, -9.25, -9.1]
        assert loaded.iterations_run == 2
        assert loaded.converged is True
        # Wall time is a measurement of the machine, not of the model,
        # and is deliberately not persisted.
        assert loaded.wall_time == 0.0

    def test_repeat_saves_are_byte_identical(self, tmp_path):
        params = params_fixture()
        report = FitReport([-1.0, -0.5], 1, False, wall_time=7.0)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(params, str(a), report=report)
        report.wall_time = 99.0
        save_model(params, str(b), report=report)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_format_tag_rejected(self, tmp_path):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path))
        with pytest.raises(CorpusFormatError, match="format"):
            load_lda(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path))
        payload = json.loads(path.read_text())
        for version in (0, FORMAT_VERSION + 1):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(CorpusFormatError, match="version"):
                load_model(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorpusFormatError, match="JSON object"):
            load_model(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(CorpusFormatError, match="not valid JSON"):
            load_model(str(path))

    def test_missing_field_rejected(self, tmp_path):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path))
        payload = json.loads(path.read_text())
        del payload["gamma"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match="missing field"):
            load_model(str(path))

    def test_declared_dims_must_match_arrays(self, tmp_path):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path))
        payload = json.loads(path.read_text())
        payload["num_clusters"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match="disagrees"):
            load_model(str(path))

    def test_invalid_parameters_rejected_on_load(self, tmp_path):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path))
        payload = json.loads(path.read_text())
        payload["pi"] = [0.9, 0.9]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_model(str(path))


class TestValuesCheckedOnLoad:
    """Files whose arrays parse but hold values no fit produces are
    refused with the file and the field named."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, index", [("gamma", 0), ("local_priors", (1, 2)), ("global_prior", 1)]
    )
    def test_non_finite_prior(self, tmp_path, field, index, value):
        params = params_fixture()
        getattr(params, field)[index] = value
        path = tmp_path / "model.json"
        save_model(params, str(path))
        with pytest.raises(CorpusFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {field} must be finite and > 0"

    @staticmethod
    def lda(**fields):
        rng = np.random.default_rng(4)
        base = dict(
            topics=rng.dirichlet(np.ones(6), size=2),
            doc_theta=rng.uniform(0.5, 2.0, (4, 2)),
            alpha=0.1,
        )
        return LdaModel(**dict(base, **fields))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("topics", (0, 0, np.nan), "topics rows must sum to 1"),
            ("topics", (1, 5, np.inf), "topics rows must sum to 1"),
            ("topics", (0, 3, 0.5), "topics rows must sum to 1"),
            ("topics", (1, 0, -1e-3), "topics has negative entries"),
            ("doc_theta", (2, 1, np.nan), "doc_theta must be finite and > 0"),
            ("doc_theta", (0, 0, np.inf), "doc_theta must be finite and > 0"),
            ("doc_theta", (3, 1, 0.0), "doc_theta must be finite and > 0"),
            ("doc_theta", (1, 1, -2.0), "doc_theta must be finite and > 0"),
            ("doc_theta", np.ones((4, 3)), "doc_theta must have one column per topic"),
            ("alpha", -0.5, "alpha must be finite and > 0"),
            ("alpha", 0.0, "alpha must be finite and > 0"),
            ("alpha", np.nan, "alpha must be finite and > 0"),
            ("alpha", np.inf, "alpha must be finite and > 0"),
        ],
    )
    def test_bad_lda_values(self, tmp_path, field, value, message):
        model = self.lda()
        if isinstance(value, tuple):
            *index, entry = value
            getattr(model, field)[tuple(index)] = entry
        else:
            setattr(model, field, value)
        path = tmp_path / "lda.json"
        save_lda(model, str(path))
        with pytest.raises(CorpusFormatError) as info:
            load_lda(str(path))
        assert str(info.value).startswith(f"{path}: {message}")


class TestLdaRoundTrip:
    def make_model(self):
        rng = np.random.default_rng(2)
        return LdaModel(
            topics=rng.dirichlet(np.ones(6), size=3),
            doc_theta=rng.dirichlet(np.ones(3), size=4),
            alpha=0.1,
        )

    def test_exact_round_trip(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "lda.json")
        save_lda(model, path)
        loaded, report = load_lda(path)
        assert report is None
        np.testing.assert_array_equal(loaded.topics, model.topics)
        np.testing.assert_array_equal(loaded.doc_theta, model.doc_theta)
        assert loaded.alpha == model.alpha

    def test_report_round_trip(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "lda.json")
        save_lda(model, path, report=FitReport([-2.0], 1, True, 0.25))
        _, report = load_lda(path)
        assert report.converged is True
        assert report.elbo_trace == [-2.0]

    def test_declared_shape_checked(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "lda.json"
        save_lda(model, str(path))
        payload = json.loads(path.read_text())
        payload["num_topics"] = 9
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match="disagrees"):
            load_lda(str(path))


class TestHiddenRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        params = params_fixture()
        _, hidden = sample_corpus(params, 5, 9, seed=3)
        path = str(tmp_path / "hidden.json")
        save_hidden(hidden, path)
        loaded = load_hidden(path)
        np.testing.assert_array_equal(loaded.cluster, hidden.cluster)
        np.testing.assert_array_equal(loaded.omega, hidden.omega)
        for a, b in zip(loaded.indicator, hidden.indicator):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.local_z, hidden.local_z):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.global_z, hidden.global_z):
            np.testing.assert_array_equal(a, b)

    def test_unused_slots_stay_minus_one(self, tmp_path):
        params = params_fixture()
        _, hidden = sample_corpus(params, 4, 20, seed=6)
        path = str(tmp_path / "hidden.json")
        save_hidden(hidden, path)
        loaded = load_hidden(path)
        for delta, z_l, z_g in zip(loaded.indicator, loaded.local_z, loaded.global_z):
            assert (z_g[delta == 1] == -1).all()
            assert (z_l[delta == 0] == -1).all()


MODEL_ARRAYS = ("pi", "gamma", "local_priors", "global_prior", "local_topics", "global_topics")


def assert_same_bits(loaded, original, dtype):
    """``loaded`` is a writable, native, C-contiguous ``dtype`` array
    holding exactly the bits of ``original`` cast to ``dtype``."""
    assert loaded.dtype == np.dtype(dtype) and loaded.dtype.isnative
    assert loaded.flags.writeable and loaded.flags.c_contiguous
    assert loaded.shape == original.shape
    assert loaded.tobytes() == np.asarray(original, dtype=dtype).tobytes()


def awkward_params():
    """Valid parameters whose arrays are not plain native C-order float64."""
    params = params_fixture()
    # a transposed copy transposed back: equal values, Fortran order
    local = np.ascontiguousarray(params.local_topics.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not local.flags.c_contiguous
    params.local_topics = local
    params.global_topics = params.global_topics.astype(">f8")
    # a subnormal prior entry survives only an exact binary copy
    params.global_prior[0] = 5e-324
    return params


def ragged_hidden():
    """Two documents: one with no tokens and one with a single token."""
    return HiddenAssignments(
        cluster=np.array([1, 0], dtype=np.int64),
        omega=np.array([0.1 + 0.2, 1.0 / 3.0]),
        indicator=[np.empty(0, dtype=np.int64), np.array([1], dtype=np.int32)],
        local_z=[np.empty(0, dtype=np.int64), np.array([0], dtype=np.int64)],
        global_z=[np.empty(0, dtype=np.int64), np.array([-1], dtype=np.int64)],
    )


def odd_lda():
    """Topics as a transposed view, zero documents in doc_theta."""
    rng = np.random.default_rng(9)
    return LdaModel(
        topics=np.ascontiguousarray(rng.dirichlet(np.ones(5), size=3).T).T,
        doc_theta=np.empty((0, 3)),
        alpha=0.1,
    )


def v1_text(payload):
    """The version-1 layout: arrays as nested lists, indent=1."""
    return json.dumps(
        dict(payload, version=1),
        indent=1,
        default=lambda o: o.tolist() if isinstance(o, np.ndarray) else float(o),
    ) + "\n"


class TestBinaryArrays:
    def test_model_bitwise_round_trip(self, tmp_path):
        params = awkward_params()
        path = str(tmp_path / "model.json")
        save_model(params, path)
        loaded, _ = load_model(path)
        for name in MODEL_ARRAYS:
            assert_same_bits(getattr(loaded, name), getattr(params, name), np.float64)

    @pytest.mark.parametrize("special", [False, True], ids=["odd_shapes", "special_floats"])
    def test_lda_bitwise_round_trip(self, tmp_path, special):
        model = odd_lda()
        if special:
            # the smallest subnormal, the largest finite and the smallest
            # normal double; -0.0, NaN and inf are refused on load and
            # checked in test_special_floats_round_trip
            model.doc_theta = np.array(
                [[5e-324, 1.7976931348623157e308, 1.0], [2.0, 2.2250738585072014e-308, 3.0]]
            )
        path = str(tmp_path / "lda.json")
        save_lda(model, path)
        loaded, _ = load_lda(path)
        assert_same_bits(loaded.topics, model.topics, np.float64)
        assert_same_bits(loaded.doc_theta, model.doc_theta, np.float64)
        assert loaded.alpha == model.alpha

    def test_hidden_bitwise_round_trip(self, tmp_path):
        hidden = ragged_hidden()
        path = str(tmp_path / "hidden.json")
        save_hidden(hidden, path)
        loaded = load_hidden(path)
        assert_same_bits(loaded.cluster, hidden.cluster, np.int64)
        assert_same_bits(loaded.omega, hidden.omega, np.float64)
        for name in ("indicator", "local_z", "global_z"):
            got, want = getattr(loaded, name), getattr(hidden, name)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_bits(a, b, np.int64)

    def test_special_floats_round_trip(self):
        # through the array codec and JSON text, as every file field goes
        arr = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 2.0]])
        text = json.dumps(arr, cls=serialize._Encoder)
        assert_same_bits(serialize._array(json.loads(text), float, 2), arr, np.float64)

    def test_version_1_files_load_to_same_bits(self, tmp_path):
        params = awkward_params()
        report = FitReport([-3.5, -2.25], 1, False)
        model_path = tmp_path / "model.json"
        save_model(params, str(model_path), report=report)
        model_payload = {
            key: getattr(params, key) if key in MODEL_ARRAYS else value
            for key, value in json.loads(model_path.read_text()).items()
        }
        model_path.write_text(v1_text(model_payload))
        loaded, loaded_report = load_model(str(model_path))
        for name in MODEL_ARRAYS:
            assert_same_bits(getattr(loaded, name), getattr(params, name), np.float64)
        assert loaded_report.elbo_trace == report.elbo_trace

        # a version-1 list cannot carry a zero-length axis's shape, so this
        # model has documents
        model = LdaModel(odd_lda().topics, np.array([[0.5, 1.5, 2.5], [3.0, 0.1, 7.0]]), 0.1)
        lda_path = tmp_path / "lda.json"
        lda_path.write_text(v1_text({
            "format": "lda-model", "num_topics": 3, "vocab_size": 5,
            "alpha": model.alpha, "topics": model.topics, "doc_theta": model.doc_theta,
        }))
        loaded_lda, _ = load_lda(str(lda_path))
        assert_same_bits(loaded_lda.topics, model.topics, np.float64)
        assert_same_bits(loaded_lda.doc_theta, model.doc_theta, np.float64)

        hidden = ragged_hidden()
        hidden_path = tmp_path / "hidden.json"
        hidden_path.write_text(v1_text({
            "format": "mgctm-hidden",
            "cluster": hidden.cluster,
            "omega": hidden.omega,
            "indicator": [a.tolist() for a in hidden.indicator],
            "local_z": [a.tolist() for a in hidden.local_z],
            "global_z": [a.tolist() for a in hidden.global_z],
        }))
        loaded_hidden = load_hidden(str(hidden_path))
        assert_same_bits(loaded_hidden.cluster, hidden.cluster, np.int64)
        assert_same_bits(loaded_hidden.omega, hidden.omega, np.float64)
        for a, b in zip(loaded_hidden.indicator, hidden.indicator):
            assert_same_bits(a, b, np.int64)

    def test_array_fields_are_encoded_objects(self, tmp_path):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path), report=FitReport([-1.5, -1.25], 1, True))
        payload = json.loads(path.read_text())
        assert payload["version"] == FORMAT_VERSION == 2
        for name in MODEL_ARRAYS:
            field = payload[name]
            assert isinstance(field, dict)
            assert field["dtype"] == "<f8"
            assert field["shape"] == list(getattr(params, name).shape)
        assert payload["report"]["elbo_trace"] == [-1.5, -1.25]

        hidden_path = tmp_path / "hidden.json"
        save_hidden(ragged_hidden(), str(hidden_path))
        payload = json.loads(hidden_path.read_text())
        assert payload["cluster"]["dtype"] == "<i8"
        assert payload["indicator"][0] == {"dtype": "<i8", "shape": [0], "data": ""}
        assert all(isinstance(a, dict) for a in payload["global_z"])

    def test_repeat_saves_of_a_seeded_fit_are_byte_identical(self, tmp_path):
        params = random_model_params(2, 2, 2, 15, seed=4)
        corpus, hidden = sample_corpus(params, 12, 20, seed=8)
        config = HyperConfig(2, 2, 2, max_em_iters=3, e_step_iters=4, elbo_rel_tol=0, seed=1)
        blobs = []
        for run in range(2):
            fitted, _, report = fit(config, corpus)
            save_model(fitted, str(tmp_path / f"m{run}.json"), report=report)
            save_hidden(hidden, str(tmp_path / f"h{run}.json"))
            save_lda(odd_lda(), str(tmp_path / f"l{run}.json"))
            blobs.append([(tmp_path / f"{kind}{run}.json").read_bytes() for kind in "mhl"])
        assert blobs[0] == blobs[1]

    def test_unstorable_dtype_rejected(self, tmp_path):
        hidden = ragged_hidden()
        hidden.indicator[1] = hidden.indicator[1].astype(bool)
        with pytest.raises(TypeError, match="bool"):
            save_hidden(hidden, str(tmp_path / "hidden.json"))


def corrupt(field, key, value):
    field = dict(field)
    if value is None:
        del field[key]
    else:
        field[key] = value
    return field


class TestMalformedArrays:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda f: corrupt(f, "data", "not*base64"), "not valid base64"),
            (lambda f: corrupt(f, "data", "é"), "not valid base64"),
            (lambda f: corrupt(f, "data", None), "not a base64 string"),
            (lambda f: corrupt(f, "data", f["data"][:-12]), "bytes where shape"),
            (lambda f: corrupt(f, "shape", [3, 3]), "bytes where shape"),
            (lambda f: corrupt(f, "dtype", "<f4"), "dtype '<f4'"),
            (lambda f: corrupt(f, "dtype", "<i8"), "dtype '<i8'"),
            (lambda f: corrupt(f, "dtype", None), "dtype None"),
            (lambda f: corrupt(f, "shape", 3), "not a list"),
            (lambda f: corrupt(f, "shape", [-1, 3]), "non-negative ints"),
            (lambda f: corrupt(f, "shape", [1.0, 3]), "non-negative ints"),
            (lambda f: corrupt(f, "shape", [True, 3]), "non-negative ints"),
            (lambda f: corrupt(f, "shape", [6]), "1-D array where 2-D"),
            (lambda f: [[0.5, 0.5], [1.0]], "not a numeric array"),
            (lambda f: [["a", "b"]], "not a numeric array"),
            (lambda f: [[None, 1.0]], "not a numeric array"),
            (lambda f: [[True, False]], "not a numeric array"),
            (lambda f: 0.5, "0-D array where 2-D"),
        ],
    )
    def test_bad_model_array_rejected_with_field_name(self, tmp_path, edit, message):
        params = params_fixture()
        path = tmp_path / "model.json"
        save_model(params, str(path))
        payload = json.loads(path.read_text())
        payload["local_priors"] = edit(payload["local_priors"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match=message) as info:
            load_model(str(path))
        assert str(info.value).startswith(f"{path}: local_priors: ")

    def test_bad_parameters_named_with_path(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(params_fixture(), str(path))
        payload = json.loads(path.read_text())
        payload["pi"] = [0.9, 0.9]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: pi must be a probability vector"

    def test_bad_lda_fields_rejected(self, tmp_path):
        path = tmp_path / "lda.json"
        save_lda(odd_lda(), str(path))
        good = json.loads(path.read_text())
        for key, value, message in (
            ("topics", [[0.5], [0.25, 0.75]], "topics: not a numeric array"),
            ("doc_theta", corrupt(good["doc_theta"], "dtype", ">f8"), "doc_theta: array dtype"),
            ("alpha", {"x": 1}, "alpha: "),
            ("alpha", "high", "alpha: "),
        ):
            path.write_text(json.dumps(dict(good, **{key: value})))
            with pytest.raises(CorpusFormatError, match=message):
                load_lda(str(path))
        del good["topics"]
        path.write_text(json.dumps(good))
        with pytest.raises(CorpusFormatError, match="missing field 'topics'"):
            load_lda(str(path))

    def test_bad_hidden_document_named(self, tmp_path):
        path = tmp_path / "hidden.json"
        save_hidden(ragged_hidden(), str(path))
        payload = json.loads(path.read_text())
        payload["local_z"][1] = corrupt(payload["local_z"][1], "shape", [2])
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match=r"local_z\[1\]: array data holds 8 bytes"):
            load_hidden(str(path))

    @pytest.mark.parametrize(
        "report, message",
        [
            ([1, 2], "wrong format tag"),
            ({"format": "fit-report", "iterations_run": 1, "converged": True},
             "missing field 'elbo_trace'"),
            ({"format": "fit-report", "elbo_trace": [{}], "iterations_run": 1,
              "converged": True}, "embedded report: "),
            ({"format": "fit-report", "elbo_trace": [], "iterations_run": "many",
              "converged": True}, "embedded report: "),
        ],
    )
    def test_bad_embedded_report_named_with_path(self, tmp_path, report, message):
        path = tmp_path / "model.json"
        save_model(params_fixture(), str(path), report=FitReport([-1.0], 1, True))
        payload = json.loads(path.read_text())
        payload["report"] = report
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError, match=message) as info:
            load_model(str(path))
        assert str(info.value).startswith(f"{path}: embedded report")
