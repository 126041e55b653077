"""Versioned JSON persistence for models, fit reports, and sampler output.

Every file is a self-describing JSON object with "format" and "version"
fields so a reader can refuse files it does not understand. Each array
is written as one object holding its dtype, its shape and its C-order
little-endian bytes in base64, so arrays round-trip bit for bit and a
file costs no per-float text; scalars are written at full repr
precision. Outputs are byte-identical across runs with the same seed.
Version-1 files, which held arrays as nested lists, are still read.
Writes go through a temp file in the target directory followed by
os.replace, so a crash never leaves a half-written file behind.
"""

import base64
import json
import math

import numpy as np

from .corpus import atomic_write_text
from .errors import CorpusFormatError
from .model import FitReport, HiddenAssignments, ModelParams

MODEL_FORMAT = "mgctm-model"
LDA_FORMAT = "lda-model"
REPORT_FORMAT = "fit-report"
HIDDEN_FORMAT = "mgctm-hidden"
FORMAT_VERSION = 2

# Stored dtype for each dtype kind an array may have.
_WIRE_DTYPES = {"f": "<f8", "i": "<i8"}
_MODEL_ARRAYS = {
    "pi": 1,
    "gamma": 1,
    "local_priors": 2,
    "global_prior": 1,
    "local_topics": 3,
    "global_topics": 2,
}


def _encode(arr):
    wire = _WIRE_DTYPES.get(arr.dtype.kind)
    if wire is None:
        raise TypeError(f"cannot store an array of dtype {arr.dtype}")
    data = np.asarray(arr, dtype=wire).tobytes(order="C")
    return {
        "dtype": wire,
        "shape": list(arr.shape),
        "data": base64.b64encode(data).decode("ascii"),
    }


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return _encode(o)
        return super().default(o)


def _dump(payload, path):
    atomic_write_text(path, json.dumps(payload, cls=_Encoder, indent=1) + "\n")


def _array(value, dtype, ndim):
    """Read one stored array as a writable, native, C-contiguous array.

    ``value`` is an encoded array object (version 2) or a nested list
    (version 1); ``dtype`` is float or np.int64. Raises
    CorpusFormatError when the value is malformed or is not ``ndim``-D.
    """
    dtype = np.dtype(dtype)
    if isinstance(value, dict):
        arr = _decode(value, dtype)
    else:
        try:
            arr = np.array(value)
        except ValueError as exc:
            raise CorpusFormatError(f"not a numeric array ({exc})") from exc
        numeric = "iuf" if dtype.kind == "f" else "iu"
        # an empty list carries no values to check, and numpy reads it as float
        if arr.size and arr.dtype.kind not in numeric:
            raise CorpusFormatError(f"not a numeric array of {dtype}")
        arr = arr.astype(dtype)
    if arr.ndim != ndim:
        raise CorpusFormatError(f"{arr.ndim}-D array where {ndim}-D expected")
    return arr


def _decode(value, dtype):
    wire = _WIRE_DTYPES[dtype.kind]
    if value.get("dtype") != wire:
        raise CorpusFormatError(f"array dtype {value.get('dtype')!r} where {wire!r} expected")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise CorpusFormatError(f"array shape {shape!r} is not a list of non-negative ints")
    data = value.get("data")
    if not isinstance(data, str):
        raise CorpusFormatError("array data is not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise CorpusFormatError(f"array data is not valid base64 ({exc})") from exc
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise CorpusFormatError(
            f"array data holds {len(raw)} bytes where shape {shape} needs {need}"
        )
    # frombuffer gives a read-only view of ``raw``; astype copies it into a
    # writable array of native byte order
    return np.frombuffer(raw, dtype=wire).astype(dtype).reshape(shape)


def _field(path, name, value, dtype, ndim):
    try:
        return _array(value, dtype, ndim)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {name}: {exc}") from exc


def _load(path, expect_format):
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorpusFormatError(f"{path}: expected a JSON object")
    got = payload.get("format")
    if got != expect_format:
        raise CorpusFormatError(
            f"{path}: format {got!r} where {expect_format!r} expected"
        )
    version = payload.get("version")
    if type(version) is not int or not 1 <= version <= FORMAT_VERSION:
        raise CorpusFormatError(f"{path}: unsupported version {version!r}")
    return payload


def save_model(params, path, report=None):
    """Write ModelParams (and optionally a FitReport) to one JSON file."""
    payload = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "num_clusters": params.num_clusters,
        "local_topics_per_cluster": params.local_topics_per_cluster,
        "num_global_topics": params.num_global_topics,
        "vocab_size": params.vocab_size,
        "pi": params.pi,
        "gamma": params.gamma,
        "local_priors": params.local_priors,
        "global_prior": params.global_prior,
        "local_topics": params.local_topics,
        "global_topics": params.global_topics,
    }
    if report is not None:
        payload["report"] = report_payload(report)
    _dump(payload, path)


def load_model(path):
    """Read a model file; returns (ModelParams, FitReport or None)."""
    payload = _load(path, MODEL_FORMAT)
    try:
        params = ModelParams(
            **{
                name: _field(path, name, payload[name], float, ndim)
                for name, ndim in _MODEL_ARRAYS.items()
            }
        )
    except KeyError as exc:
        raise CorpusFormatError(f"{path}: missing field {exc}") from exc
    try:
        params.validate()
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc
    for name in ("num_clusters", "local_topics_per_cluster", "num_global_topics", "vocab_size"):
        if payload.get(name) != getattr(params, name):
            raise CorpusFormatError(f"{path}: declared {name} disagrees with arrays")
    return params, _report(path, payload)


def report_payload(report):
    # wall_time is intentionally not persisted: files produced by two runs
    # of the same seeded command must be byte-identical.
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "elbo_trace": list(report.elbo_trace),
        "iterations_run": report.iterations_run,
        "converged": report.converged,
    }


def report_from_payload(payload):
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise CorpusFormatError("embedded report has wrong format tag")
    try:
        return FitReport(
            elbo_trace=[float(x) for x in payload["elbo_trace"]],
            iterations_run=int(payload["iterations_run"]),
            converged=bool(payload["converged"]),
        )
    except KeyError as exc:
        raise CorpusFormatError(f"embedded report: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"embedded report: {exc}") from exc


def _report(path, payload):
    if "report" not in payload:
        return None
    try:
        return report_from_payload(payload["report"])
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def save_hidden(hidden, path):
    """Write sampler ground truth; unused topic slots stay -1."""
    payload = {
        "format": HIDDEN_FORMAT,
        "version": FORMAT_VERSION,
        "cluster": hidden.cluster,
        "omega": hidden.omega,
        "indicator": hidden.indicator,
        "local_z": hidden.local_z,
        "global_z": hidden.global_z,
    }
    _dump(payload, path)


def load_hidden(path):
    payload = _load(path, HIDDEN_FORMAT)
    try:
        fields = {
            "cluster": _field(path, "cluster", payload["cluster"], np.int64, 1),
            "omega": _field(path, "omega", payload["omega"], float, 1),
        }
        for name in ("indicator", "local_z", "global_z"):
            fields[name] = [
                _field(path, f"{name}[{d}]", value, np.int64, 1)
                for d, value in enumerate(payload[name])
            ]
    except KeyError as exc:
        raise CorpusFormatError(f"{path}: missing field {exc}") from exc
    return HiddenAssignments(**fields)


def save_lda(model, path, report=None):
    """Write an LDA baseline model (topics + per-document proportions)."""
    payload = {
        "format": LDA_FORMAT,
        "version": FORMAT_VERSION,
        "num_topics": model.topics.shape[0],
        "vocab_size": model.topics.shape[1],
        "alpha": model.alpha,
        "topics": model.topics,
        "doc_theta": model.doc_theta,
    }
    if report is not None:
        payload["report"] = report_payload(report)
    _dump(payload, path)


def load_lda(path):
    from .baselines import LdaModel

    payload = _load(path, LDA_FORMAT)
    try:
        topics = _field(path, "topics", payload["topics"], float, 2)
        doc_theta = _field(path, "doc_theta", payload["doc_theta"], float, 2)
        alpha = payload["alpha"]
    except KeyError as exc:
        raise CorpusFormatError(f"{path}: missing field {exc}") from exc
    try:
        alpha = float(alpha)
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{path}: alpha: {exc}") from exc
    model = LdaModel(topics=topics, doc_theta=doc_theta, alpha=alpha)
    try:
        model.validate()
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc
    if payload.get("num_topics") != model.topics.shape[0] or payload.get(
        "vocab_size"
    ) != model.topics.shape[1]:
        raise CorpusFormatError(f"{path}: declared shape disagrees with arrays")
    return model, _report(path, payload)
