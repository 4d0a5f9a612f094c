"""Golden digests of the protocol layer: an oracle for byte-identity.

``tests/golden/protocol_digests.json`` holds, for every protocol ×
scenario cell below on ``small_config``, the SHA-256 of the run's
canonical result document (:func:`~repro.analysis.persistence.run_to_document`
encoded as sorted, compact, strict JSON).  Cells run on the default
Euclidean latency model; a ``/router`` suffix on a cell id runs it on the
router-level model instead, which covers the router attachment and
landmark-measurement paths.  A refactor of the protocol
code must leave every digest unchanged; a change that is meant to alter
results regenerates the corpus and says so.

Regenerate the corpus by running this module as a script::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.persistence import run_to_document
from repro.experiments import small_config
from repro.experiments.runner import run_protocol

CORPUS = Path(__file__).parent / "golden" / "protocol_digests.json"

PROTOCOLS = ("flooding", "dicas", "dicas-keys", "locaware", "locaware-lr")
SCENARIOS = ("baseline", "churn-storm", "flash-crowd")
SEED = 7
MAX_QUERIES = 200
BUCKET_WIDTH = 50

ROUTER_PROTOCOLS = ("flooding", "locaware")

CELLS = [
    f"{protocol}/{scenario}/{SEED}" for protocol in PROTOCOLS for scenario in SCENARIOS
] + [f"{protocol}/baseline/{SEED}/router" for protocol in ROUTER_PROTOCOLS]


def cell_digest(cell_id: str) -> str:
    """SHA-256 of one cell's canonical result document."""
    protocol, scenario, seed, *model = cell_id.split("/")
    config = small_config(seed=int(seed))
    if model:
        config = config.replace(latency_model=model[0])
    run = run_protocol(
        config,
        protocol,
        MAX_QUERIES,
        BUCKET_WIDTH,
        scenario=scenario,
        collect_telemetry=False,
    )
    text = json.dumps(
        run_to_document(run), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_cell(corpus):
    assert sorted(corpus) == sorted(CELLS)


@pytest.mark.parametrize("cell_id", CELLS)
def test_digest_matches_corpus(cell_id, corpus):
    assert cell_digest(cell_id) == corpus[cell_id]


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    digests = {cell_id: cell_digest(cell_id) for cell_id in CELLS}
    text = json.dumps(digests, indent=2, sort_keys=True, allow_nan=False)
    CORPUS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {CORPUS}", file=sys.stderr)
