"""Where the benchmark's timing wrappers go: one layer per public API.

:func:`instrument` patches the layer functions with
:class:`~ledger.Recorder` wrappers and returns the timing bigint backend
to install with :func:`repro.crypto.backend.use_backend`;
``recorder.restore()`` undoes every patch.
"""

from __future__ import annotations

import functools

from repro.core import runner
from repro.crypto import symmetric
from repro.crypto.backend import PythonBackend
from repro.crypto.engine import CryptoEngine, FixedBaseTable
from repro.mediation import network as bus
from repro.relational import algebra, encoding, partition
from repro.transport import codec
from repro.transport.tcp import TcpTransport

from ledger import Recorder

BIGINT_METHODS = ("powmod", "invert", "gcd", "jacobi", "is_probable_prime",
                  "powmod_base_list", "powmod_exp_list")
ENGINE_BATCHES = tuple(name for name in vars(CryptoEngine)
                       if name.startswith("batch_") or name == "map_batch")
CODEC_FUNCTIONS = ("encode_value", "decode_value", "encode_envelope",
                   "decode_envelope", "peek_envelope", "build_frame",
                   "parse_frame_header")
RELATIONAL_FUNCTIONS = (
    (encoding, ("encode_value", "encode_row", "decode_row", "encode_rows",
                "decode_rows", "encode_relation", "decode_relation",
                "value_to_int", "int_to_value")),
    (partition, ("build_index_table", "equi_width", "equi_depth", "singleton")),
    (algebra, ("select", "project", "product", "select_product",
               "natural_join", "union", "intersection", "difference",
               "evaluate_above_join")),
)
STORAGE_METHODS = {
    "storage.get": ("cache_get", "key_epoch"),
    "storage.put": ("cache_put",),
    "storage.rows": ("store_relation", "load_relation", "select",
                     "bucket_join", "relation_names"),
}


def _length_of_result(args, kwargs, result) -> int:
    return len(result)


def _length_of_first(args, kwargs, result) -> int:
    return len(args[0])


def _length_of_second(args, kwargs, result) -> int:
    return len(args[1])


def instrument(recorder: Recorder, storage=None) -> PythonBackend:
    """Patch every layer; returns the timing bigint backend."""
    backend = PythonBackend()
    for name in BIGINT_METHODS:
        setattr(backend, name, recorder.wrap("crypto.bigint", getattr(backend, name)))
    recorder.patch(FixedBaseTable, "pow", "crypto.fixedbase")
    for name in ("encrypt", "decrypt"):
        recorder.patch_everywhere(symmetric, name, "crypto.dem", _length_of_second)
    for name in ENGINE_BATCHES:
        recorder.patch(CryptoEngine, name, "crypto.engine", _length_of_result)

    for name in CODEC_FUNCTIONS:
        amount = {"encode_value": _length_of_result,
                  "decode_value": _length_of_first}.get(name)
        recorder.patch_everywhere(codec, name, "transport.codec", amount)
    recorder.patch(bus.Network, "send", "transport.send")
    recorder.patch(TcpTransport, "send", "transport.send")
    recorder.patch(bus, "estimate_size", "mediation.sizing")

    if storage is not None:
        for layer, names in STORAGE_METHODS.items():
            for name in names:
                recorder.patch(storage, name, layer)
    for module, names in RELATIONAL_FUNCTIONS:
        for name in names:
            recorder.patch_everywhere(module, name, "relational")

    recorder.patch(runner, "run_request_phase", "core.request")
    recorder.patch(runner, "run_join_query", "core.post")
    # The runner looks delivery functions up in PROTOCOLS on every call.
    for name, entry in list(runner.PROTOCOLS.items()):
        recorder.on_restore(functools.partial(runner.PROTOCOLS.__setitem__, name, entry))
        runner.PROTOCOLS[name] = (recorder.wrap("core.delivery", entry[0]), entry[1])
    return backend
