"""Tests for the harness's ORB-free sharded directory: stable CRC-32
routing on the one-component name, round robin per name, spread."""

import zlib

import pytest

from repro.errors import NamingError
from repro.services.naming import ShardedServiceDirectory
from repro.services.naming.names import NameComponent


def test_directory_round_robin_and_errors():
    directory = ShardedServiceDirectory(4)
    directory.register("svc", "a")
    directory.register("svc", "b")
    with pytest.raises(NamingError):
        directory.register("svc", "a")  # duplicate replica
    assert [directory.resolve("svc") for _ in range(4)] == ["a", "b", "a", "b"]
    with pytest.raises(NamingError):
        directory.resolve("unbound")


@pytest.mark.parametrize(
    "service", ["svc-0007", "a.b", "a/b", "", "x.", "dienst-ü", "svc 1"]
)
def test_directory_routes_by_the_shard_key_of_the_one_component_name(service):
    """The directory derives its routing key without parsing; it is still
    the ``id.kind`` form of the name ``[(service, kind "")]``, whatever the
    id, and the shard is its CRC-32 modulo the shard count."""
    shards = 8
    directory = ShardedServiceDirectory(shards)
    directory.register(service, "replica")
    assert directory.resolve(service) == "replica"
    component = NameComponent(service)
    key = f"{component.id}.{component.kind}"
    expected = [0] * shards
    expected[zlib.crc32(key.encode("utf-8")) % shards] = 1
    assert directory.resolutions_by_shard == expected
    assert list(directory._shards[expected.index(1)]) == [key]


def test_directory_spread_counts_per_shard():
    directory = ShardedServiceDirectory(8)
    services = [f"svc-{i:03d}" for i in range(32)]
    for service in services:
        directory.register(service, object())
    for _ in range(4):
        for service in services:
            directory.resolve(service)
    spread = directory.spread()
    assert spread["resolutions"] == 4 * len(services)
    # Uniform per-service traffic: no shard hoards the resolve stream.
    assert spread["peak_share"] < 0.5
