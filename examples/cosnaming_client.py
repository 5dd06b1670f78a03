#!/usr/bin/env python
"""A plain CosNaming client against the load-distributing naming service.

§2: "every ORB can interoperate with a new naming service as long as it
complies to the OMG specification".  This client is written against the
standard ``CosNaming::NamingContext`` interface only — it never sees the
load-distributing extension the runtime's root context implements.  It

1. builds a context tree: ``bind_new_context`` makes ``apps``, and a
   context from ``new_context`` is attached under it with ``bind_context``;
2. binds an object under a compound name, rebinds it, and resolves it
   (each compound name walks the tree one context at a time, by ORB call);
3. lists each context's bindings, objects and contexts alike;
4. resolves a service group the deployer registered with ``bind_service``
   through the same plain ``resolve`` — and gets back one replica, on a
   host Winner chose;
5. unbinds everything it bound and destroys its two contexts.

Run:  python examples/cosnaming_client.py
"""

from repro.core import Runtime, RuntimeConfig
from repro.orb import compile_idl
from repro.services.naming import idl as cosnaming
from repro.services.naming.names import to_name

runtime = Runtime(RuntimeConfig(num_hosts=5, seed=5, winner_interval=0.5)).start()

ns = compile_idl("interface Where { string host(); };", name="cosnaming-example")


class WhereImpl(ns.WhereSkeleton):
    def host(self):
        return self._host().name


runtime.register_type("Where", WhereImpl)
runtime.run(runtime.deploy_group("where.service", "Where", [1, 2, 3, 4]))
runtime.background_load([1])
runtime.settle(3.0)
#: an ordinary object the client binds by name
plain = runtime.orb(2).poa.activate(WhereImpl())


def listing(context):
    """``id[.kind]:<binding type>`` of every binding in ``context``."""
    rows = []
    for binding in (yield context.list_bindings(0)):
        name = binding.binding_name[0]
        label = f"{name.id}.{name.kind}" if name.kind else name.id
        rows.append(f"{label}:{binding.binding_type.name}")
    return rows


def client():
    orb = runtime.orb(0)
    # the root reference narrowed to the OMG interface, nothing more
    root = orb.stub(runtime.naming_ior, cosnaming.NamingContextStub)

    apps_ior = yield root.bind_new_context(to_name("apps"))
    apps = orb.stub(apps_ior, cosnaming.NamingContextStub)
    tools_ior = yield root.new_context()
    yield root.bind_context(to_name("apps/tools"), tools_ior)

    yield root.bind(to_name("apps/tools/where.object"), plain)
    yield root.rebind(to_name("apps/tools/where.object"), plain)
    found = yield root.resolve(to_name("apps/tools/where.object"))
    assert found == plain
    host = yield orb.stub(found, ns.WhereStub).host()
    print(f"apps/tools/where.object resolves to an object on {host}")

    print(f"apps holds    {(yield from listing(apps))}")
    root_listing = yield from listing(root)
    print(f"the root holds {root_listing}")
    assert "where.service:nobject" in root_listing  # a group lists as an object

    hosts = []
    for _ in range(3):
        replica = yield root.resolve(to_name("where.service"))
        hosts.append((yield orb.stub(replica, ns.WhereStub).host()))
    print(f"plain resolve of the service group picked {hosts}")
    assert "ws01" not in hosts  # the loaded host is avoided

    yield root.unbind(to_name("apps/tools/where.object"))
    yield root.unbind(to_name("apps/tools"))
    tools = orb.stub(tools_ior, cosnaming.NamingContextStub)
    yield tools.destroy()
    yield root.unbind(to_name("apps"))
    yield apps.destroy()
    print(f"after clean-up the root holds {(yield from listing(root))}")
    return hosts


if __name__ == "__main__":
    runtime.run(client())
