"""The registry keeps each model's released view, and the bodies hold.

The digests below are the sha256 of the exact wire bytes of ``/fit``,
``/sample`` and ``/release`` on as20 for every servable method, recorded
while the registry still held whole fit results.  Keeping only the
released view (method, initiator, k, ε) must not move a single byte.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pickle

from repro.core.protocols import FittedModel, build_estimator
from repro.graphs.datasets import load_dataset
from repro.runtime.cache import TrialCache
from repro.serve.registry import ReleasedModel
from repro.serve.server import ServeRuntime
from repro.serve.service import SynthesisService

from serve_helpers import make_config

BODY_SHA256 = {
    ("kronfit", "/fit"): "63e0a7e03716e1697dc0c780da6b59a8f4f43e664bfe9a6e133b1e74f9ccf362",
    ("kronfit", "/sample"): "1b9d05052dfa900aafe8b55ca96d2328212f9f84076103a77b06c0f84dbb59a7",
    ("kronmom", "/fit"): "1c2677a3e8dbd7ad672e6da706e69751f96f02654be64e5da7f454bd77d8ff69",
    ("kronmom", "/sample"): "ad66d5ec5b6e21040919f4ec8287e30cb21081522adb677e412160fdf5be97ce",
    ("private", "/fit"): "11a94badd655c91ade2b78681491a0447fbf90b12569d217dab7effcf840c7e3",
    ("private", "/sample"): "3bff527523daa5b1a7011a3a3de169e40e64cf3e067b8ca6b65aa618bf7b5751",
    ("private", "/release"): "3bff527523daa5b1a7011a3a3de169e40e64cf3e067b8ca6b65aa618bf7b5751",
    ("dpdegree", "/fit"): "ede8ef74ed6f0d5f4888375184e8e2f28955b8bfe40c01a72065eaf71afbd115",
    ("dpdegree", "/sample"): "0a3952a76370107c4fef5cc207d15a9147001c63eaca380c63c7cb1f3a79b596",
    ("dpdegree", "/release"): "0a3952a76370107c4fef5cc207d15a9147001c63eaca380c63c7cb1f3a79b596",
}


def request_payload(method: str, endpoint: str) -> dict:
    payload = {"dataset": "as20", "method": method}
    if endpoint != "/fit":
        payload["count"] = 2
    return payload


def wire_bytes(response) -> bytes:
    """The body exactly as the HTTP layer writes it."""
    return (json.dumps(response.body, sort_keys=True) + "\n").encode("utf-8")


def test_bodies_match_the_pinned_digests_over_the_wire():
    runtime = ServeRuntime(make_config())
    runtime.start()
    host, port = runtime.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for (method, endpoint), digest in BODY_SHA256.items():
            connection.request(
                "POST", endpoint, body=json.dumps(request_payload(method, endpoint)),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200, (method, endpoint, body)
            assert hashlib.sha256(body).hexdigest() == digest, (method, endpoint)
    finally:
        connection.close()
        runtime.stop()


def test_registry_keeps_the_released_view_of_initiator_models():
    service = SynthesisService(make_config())
    for method in ("kronfit", "kronmom", "private", "dpdegree"):
        assert service.handle("POST", "/fit", request_payload(method, "/fit")).status == 200
    models = {
        getattr(model, "method", type(model).__name__): model
        for model in service.models._models.values()
    }
    assert set(models) == {"KronFit", "KronMom", "Private", "DegreeSequenceModel"}
    for method in ("KronFit", "KronMom", "Private"):
        assert type(models[method]) is ReleasedModel
        assert isinstance(models[method], FittedModel)
    # Sampling a degree-sequence model needs its degrees: it stays whole.
    assert type(models["DegreeSequenceModel"]).__name__ == "DegreeSequenceModel"


def test_private_registry_entry_pickles_small():
    service = SynthesisService(make_config())
    assert service.handle("POST", "/fit", request_payload("private", "/fit")).status == 200
    (model,) = service.models._models.values()
    # The whole Private fit result pickles to about 105 KB on as20.
    assert len(pickle.dumps(model)) < 2048


def test_restart_from_a_full_model_pickle_serves_the_same_bytes(tmp_path):
    """A cache written when the registry stored whole fit results."""
    config = make_config(
        cache_dir=str(tmp_path / "cache"), ledger_dir=str(tmp_path / "ledgers")
    )
    first = SynthesisService(config)
    fitted = first.handle("POST", "/fit", request_payload("private", "/fit"))
    assert fitted.status == 200
    (token,) = first.models._models
    first.drain(5.0)

    # Overwrite the persisted model with the whole fit result, exactly
    # what an older server stored under the same (unchanged) key.
    full = build_estimator(
        "Private", {}, epsilon=0.2, delta=0.01, seed=fitted.body["seed"]
    ).fit(load_dataset("as20"))
    TrialCache(config.cache_dir).store(token, full)

    reborn = SynthesisService(config)
    released = reborn.handle("POST", "/release", request_payload("private", "/release"))
    assert released.status == 200
    assert released.headers["X-Repro-Cache"] == "miss"
    assert (
        hashlib.sha256(wire_bytes(released)).hexdigest()
        == BODY_SHA256[("private", "/release")]
    )
    assert released.body["model"]["epsilon"] == float(full.epsilon)
    assert reborn.models.snapshot()["restored"] == 1
    restored = reborn.models._models[token]
    assert type(restored) is ReleasedModel
    assert restored.epsilon == float(full.epsilon)
    # The restore charged nothing: the one entry is the first fit's.
    assert len(reborn.accountants.for_dataset("as20").ledger) == 1
