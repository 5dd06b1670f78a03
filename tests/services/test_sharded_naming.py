"""Tests for sharded naming: stable routing, the client-side router over
real context servants, and the harness's ORB-free directory."""

import pytest

from repro.errors import ConfigurationError, NamingError
from repro.services.naming import (
    ShardedNameRouter,
    ShardedServiceDirectory,
    shard_index,
    shard_key,
)
from repro.services.naming.names import NameComponent, name_to_string, to_name


class FakeContext:
    """Stand-in speaking the context interface (the router accepts
    servants, ORB stubs, or anything shaped like one)."""

    def __init__(self):
        self.bindings = {}
        self.groups = {}
        self.cursor = {}

    def _key(self, name):
        return name_to_string(to_name(name))

    def bind(self, name, obj):
        self.bindings[self._key(name)] = obj

    rebind = bind

    def bind_service(self, name, obj):
        self.groups.setdefault(self._key(name), []).append(obj)

    def unbind_service(self, name, obj):
        self.groups[self._key(name)].remove(obj)

    def resolve(self, name):
        key = self._key(name)
        if key in self.groups:
            group = self.groups[key]
            index = self.cursor.get(key, 0) % len(group)
            self.cursor[key] = index + 1
            return group[index]
        if key not in self.bindings:
            raise NamingError(f"nothing bound under {key!r}")
        return self.bindings[key]

    def resolve_all(self, name):
        return list(self.groups.get(self._key(name), []))

    def replica_count(self, name):
        return len(self.groups.get(self._key(name), []))

    def unbind(self, name):
        del self.bindings[self._key(name)]


def test_shard_key_uses_first_component_only():
    assert shard_key("svc-a/sub") == shard_key("svc-a/other")
    assert shard_key("svc-a") != shard_key("svc-b")


def test_shard_index_is_stable_and_in_range():
    for shards in (1, 2, 8, 16):
        for i in range(200):
            idx = shard_index(f"svc-{i:04d}", shards)
            assert 0 <= idx < shards
            assert idx == shard_index(f"svc-{i:04d}", shards)
    with pytest.raises(ConfigurationError):
        shard_index("x", 0)


def test_shard_index_spreads_names():
    shards = 8
    seen = {shard_index(f"svc-{i:04d}", shards) for i in range(200)}
    assert seen == set(range(shards))  # every shard gets traffic


def test_router_forwards_to_hashed_shard():
    contexts = [FakeContext() for _ in range(4)]
    router = ShardedNameRouter(contexts)
    names = [f"obj-{i}" for i in range(40)]
    for i, name in enumerate(names):
        router.bind(name, f"ref-{i}")
    for i, name in enumerate(names):
        shard = router.shard_for(name)
        # The binding lives on exactly the hashed shard...
        assert contexts[shard].resolve(name) == f"ref-{i}"
        # ...and the router finds it transparently.
        assert router.resolve(name) == f"ref-{i}"
    for other in range(4):
        for name in names:
            if router.shard_for(name) != other:
                with pytest.raises(NamingError):
                    contexts[other].resolve(name)
                break
    spread = router.spread()
    assert spread["resolutions"] == len(names)
    assert sum(spread["per_shard"]) == len(names)
    assert 0 < spread["peak_share"] < 1.0


def test_router_service_groups_round_robin_per_shard():
    contexts = [FakeContext() for _ in range(3)]
    router = ShardedNameRouter(contexts)
    router.bind_service("grp", "replica-1")
    router.bind_service("grp", "replica-2")
    assert router.replica_count("grp") == 2
    picks = {router.resolve("grp") for _ in range(4)}
    assert picks == {"replica-1", "replica-2"}
    assert set(router.resolve_all("grp")) == {"replica-1", "replica-2"}
    router.unbind_service("grp", "replica-1")
    assert router.replica_count("grp") == 1


def test_router_needs_at_least_one_shard():
    with pytest.raises(ConfigurationError):
        ShardedNameRouter([])


def test_directory_round_robin_and_errors():
    directory = ShardedServiceDirectory(4)
    directory.register("svc", "a")
    directory.register("svc", "b")
    with pytest.raises(NamingError):
        directory.register("svc", "a")  # duplicate replica
    assert [directory.resolve("svc") for _ in range(4)] == ["a", "b", "a", "b"]
    assert directory.resolve_all("svc") == ["a", "b"]
    directory.deregister("svc", "a")
    assert directory.resolve("svc") == "b"
    directory.deregister("svc", "b")
    with pytest.raises(NamingError):
        directory.resolve("svc")
    with pytest.raises(NamingError):
        directory.deregister("svc", "b")


def test_directory_cursor_goes_with_its_group():
    """A name bound again after its group emptied starts at the new
    group's first replica; it used to start where the old cursor stood."""
    directory = ShardedServiceDirectory(4)
    directory.register("svc", "a")
    directory.register("svc", "b")
    assert directory.resolve("svc") == "a"
    directory.deregister("svc", "a")
    directory.deregister("svc", "b")
    directory.register("svc", "c")
    directory.register("svc", "d")
    assert [directory.resolve("svc") for _ in range(3)] == ["c", "d", "c"]
    # ...and the cursor table holds live names only, not every name ever bound
    for index in range(50):
        directory.register(f"once-{index}", "x")
        directory.resolve(f"once-{index}")
        directory.deregister(f"once-{index}", "x")
    assert sum(len(cursors) for cursors in directory._cursors) == 1


@pytest.mark.parametrize(
    "service", ["svc-0007", "a.b", "a/b", "", "x.", "dienst-ü", "svc 1"]
)
def test_directory_routes_by_the_shard_key_of_the_one_component_name(service):
    """The directory derives its routing key without parsing; it is still
    ``shard_key`` of the name ``[(service, kind "")]``, whatever the id."""
    shards = 8
    directory = ShardedServiceDirectory(shards)
    directory.register(service, "replica")
    assert directory.resolve(service) == "replica"
    expected = [0] * shards
    expected[shard_index([NameComponent(service)], shards)] = 1
    assert directory.resolutions_by_shard == expected
    assert list(directory._shards[expected.index(1)]) == [
        shard_key([NameComponent(service)])
    ]


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
