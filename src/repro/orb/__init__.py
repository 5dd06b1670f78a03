"""A CORBA-style Object Request Broker on the simulated network.

The subset implemented is the one the paper's runtime support relies on:

* **CDR marshalling** (:mod:`repro.orb.cdr`, :mod:`repro.orb.typecodes`) —
  big-endian Common Data Representation with alignment, typed values, a
  self-describing ``any``, and a fast path for numeric arrays.  Message
  sizes are real and drive the simulated network's transfer times.
* **IORs** (:mod:`repro.orb.ior`) — interoperable object references
  carrying host, port, object key, repository id and incarnation; they
  travel only as CDR, in replies and through the naming service.
* **An IDL compiler** (:mod:`repro.orb.idl`) — lexer, recursive-descent
  parser and code generator producing Python stubs and skeletons from OMG
  IDL source, the way ``omniidl`` produced C++ stubs for the paper.
* **GIOP-style messaging** (:mod:`repro.orb.giop`) over a datagram
  transport (:mod:`repro.orb.transport`) with reset notifications, so a
  dead server turns into ``COMM_FAILURE`` at the client — the failure
  signal the paper's proxies intercept.
* **ORB core + POA** (:mod:`repro.orb.core`) — object adapters, servant
  activation, request dispatch as host-bound simulation processes (server
  work consumes the host CPU), and system-exception propagation.
* **DII** (:mod:`repro.orb.dii`) — dynamic ``Request`` objects with
  deferred-synchronous invocation, used by the manager to run workers in
  parallel and wrapped by the paper's *request proxies*.
"""

from repro.orb import typecodes
from repro.orb.cdr import CdrInputStream, CdrOutputStream, decode_any, encode_any
from repro.orb.ior import IOR
from repro.orb.core import Orb, OrbConfig, POA, Servant
from repro.orb.dii import Request
from repro.orb.stubs import ObjectStub
from repro.orb.idl import compile_idl
from repro.orb.forwarding import ForwardingAgent, LocationForward, make_forwarding_servant

__all__ = [
    "CdrInputStream",
    "CdrOutputStream",
    "ForwardingAgent",
    "IOR",
    "LocationForward",
    "Orb",
    "OrbConfig",
    "ObjectStub",
    "POA",
    "Request",
    "Servant",
    "compile_idl",
    "decode_any",
    "encode_any",
    "make_forwarding_servant",
    "typecodes",
]
