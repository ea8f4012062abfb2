"""An execution entry of the artifact store under byte damage.

Every truncation and byte flip of a payload file must be a quarantined,
counted miss, after which the entry is gone, so the next ``artifacts()``
call recomputes it.  Damage to ``meta.json`` must be either such a miss
or a hit that hydrates the same artifacts.  Nothing may raise.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.engine.store import ArtifactStore, artifact_key
from repro.engine.telemetry import Telemetry
from repro.experiments.runner import ExperimentRunner, clear_memo
from repro.opt import OptOptions
from tests.test_durable import _damaged

SCALE = "small"
WORKLOAD = "cmp"
FILES = ("meta.json", "profiles.json", "arrays.npz")

#: Files longer than this many offsets are damaged at a seeded sample
#: of :data:`SAMPLED_OFFSETS` offsets instead of at every one.
MAX_OFFSETS = 4096
SAMPLED_OFFSETS = 256


def fingerprint(art) -> tuple:
    """The placement, traces and profiles of one workload's artifacts."""
    placement = art.placement
    return (
        tuple(placement.order),
        placement.image.total_bytes,
        art.trace.block_ids.tobytes(),
        art.trace.via.tobytes(),
        art.original_trace.block_ids.tobytes(),
        art.original_trace.via.tobytes(),
        placement.profile.block_weights.tobytes(),
        placement.profile.taken_weights.tobytes(),
        placement.pre_inline_profile.block_weights.tobytes(),
        placement.profile.dynamic_calls,
    )


@pytest.fixture(scope="module")
def entry(tmp_path_factory):
    """A pristine entry's bytes, and the artifacts it hydrates to."""
    root = str(tmp_path_factory.mktemp("store"))
    store = ArtifactStore(root)
    ExperimentRunner(scale=SCALE, store=store).artifacts(WORKLOAD)
    key = artifact_key(WORKLOAD, SCALE, OptOptions())
    files = {}
    for name in FILES:
        with open(os.path.join(root, "objects", key, name), "rb") as handle:
            files[name] = handle.read()
    clear_memo()
    expected = ExperimentRunner(scale=SCALE, store=store).artifacts(WORKLOAD)
    clear_memo()
    return root, key, files, fingerprint(expected)


def damaged(name: str, data: bytes):
    """Truncations and byte flips at every offset of ``data``, or at a
    seeded sample of them when it is long."""
    offsets = range(len(data))
    if len(data) > MAX_OFFSETS:
        rng = random.Random(f"store-damage:{name}")
        offsets = sorted(rng.sample(offsets, SAMPLED_OFFSETS))
    return _damaged(data, offsets)


def install(root: str, key: str, files: dict, name: str, data: bytes):
    entry_dir = os.path.join(root, "objects", key)
    shutil.rmtree(entry_dir, ignore_errors=True)
    shutil.rmtree(os.path.join(root, "quarantine"), ignore_errors=True)
    os.makedirs(entry_dir)
    for file_name, content in files.items():
        with open(os.path.join(entry_dir, file_name), "wb") as handle:
            handle.write(data if file_name == name else content)


def assert_quarantined_miss(store: ArtifactStore, key: str) -> None:
    assert (store.misses, store.hits, store.quarantined) == (1, 0, 1)
    assert key not in store
    assert os.listdir(store.quarantine_dir) == [key]


@pytest.mark.parametrize("name", ["profiles.json", "arrays.npz"])
def test_payload_damage_is_a_quarantined_miss(entry, name):
    root, key, files, expected = entry
    for data in damaged(name, files[name]):
        install(root, key, files, name, data)
        store = ArtifactStore(root)
        assert store.get(key) is None
        assert_quarantined_miss(store, key)
    # Every case left the same state — the entry quarantined, its key
    # absent — so one rebuild stands for all of them.
    telemetry = Telemetry()
    art = ExperimentRunner(
        scale=SCALE, store=ArtifactStore(root), telemetry=telemetry,
    ).artifacts(WORKLOAD)
    assert telemetry.totals()["store_misses"] == 1
    assert fingerprint(art) == expected
    assert key in ArtifactStore(root)


def test_meta_damage_is_a_miss_or_an_identical_hit(entry):
    root, key, files, expected = entry
    outcomes = {"hit": 0, "miss": 0}
    for data in damaged("meta.json", files["meta.json"]):
        install(root, key, files, "meta.json", data)
        store = ArtifactStore(root)
        if store.get(key) is None:
            assert_quarantined_miss(store, key)
            outcomes["miss"] += 1
            continue
        clear_memo()
        telemetry = Telemetry()
        art = ExperimentRunner(
            scale=SCALE, store=store, telemetry=telemetry,
        ).artifacts(WORKLOAD)
        assert telemetry.totals()["store_hits"] == 1
        assert telemetry.totals()["interp_instructions"] == 0
        assert fingerprint(art) == expected
        outcomes["hit"] += 1
    clear_memo()
    # Truncations always miss; flips of digits and key letters still hit.
    assert outcomes["miss"] >= len(files["meta.json"])
    assert outcomes["hit"] > 0
    assert sum(outcomes.values()) == 2 * len(files["meta.json"])
