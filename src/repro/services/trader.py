"""The explicit trader-service baseline.

§2 lists design alternatives to the naming-service integration, the first
being "implementation of an explicit service (e.g. a 'trader') which
returns an object reference for the requested service on an available host
(centralized load distribution strategy) or references for all available
service objects.  In the latter case, the client has to evaluate the load
information for all of the returned references and has to make a selection
by itself (decentralized load distribution strategy)."

Both flavours are implemented so the ablation bench can quantify the
paper's argument: the trader achieves the same placement quality, but the
client *source code must change* (it calls ``lookup_one``/``lookup_all``
instead of ``resolve``), which is exactly the drawback the paper's naming
integration avoids.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.orb.idl import compile_idl
from repro.orb.ior import IOR

if TYPE_CHECKING:  # pragma: no cover
    from repro.winner.system_manager import SystemManager

TRADER_IDL = """
module Trading {
    exception NoOffers { string service_type; };
    exception UnknownServiceType { string service_type; };

    struct Offer {
        Object reference;
        string host;
        double score;
    };
    typedef sequence<Offer> OfferSeq;

    interface Trader {
        void export_offer(in string service_type, in Object reference);
        void withdraw(in string service_type, in Object reference)
            raises (UnknownServiceType);
        // Centralized strategy: the trader consults Winner and picks.
        Object lookup_one(in string service_type) raises (NoOffers);
        // Decentralized strategy: all offers plus load scores; the client
        // evaluates and selects.
        OfferSeq lookup_all(in string service_type) raises (NoOffers);
    };
};
"""

ns = compile_idl(TRADER_IDL, name="trading")

NoOffers = ns.NoOffers
UnknownServiceType = ns.UnknownServiceType
Offer = ns.Offer
TraderStub = ns.TraderStub
TraderSkeleton = ns.TraderSkeleton


class TraderServant(TraderSkeleton):
    """Service-type → offers registry with Winner-backed selection."""

    def __init__(self, system_manager: "SystemManager") -> None:
        self._manager = system_manager
        self._offers: dict[str, list[IOR]] = {}

    def export_offer(self, service_type, reference):
        offers = self._offers.setdefault(service_type, [])
        if reference not in offers:
            offers.append(reference)

    def withdraw(self, service_type, reference):
        offers = self._offers.get(service_type)
        if not offers or reference not in offers:
            raise UnknownServiceType(service_type=service_type)
        offers.remove(reference)

    def lookup_one(self, service_type):
        offers = self._offers.get(service_type)
        if not offers:
            raise NoOffers(service_type=service_type)
        chosen = self._manager.place(offers)
        return offers[0] if chosen is None else chosen

    def lookup_all(self, service_type):
        offers = self._offers.get(service_type)
        if not offers:
            raise NoOffers(service_type=service_type)
        return [
            Offer(
                reference=ior,
                host=ior.host,
                score=self._manager.score(ior.host),
            )
            for ior in offers
        ]


def select_least_loaded(offers: Sequence) -> IOR:
    """Client-side decentralized selection: highest Winner score wins.

    This is the code every client would need to carry under the
    decentralized trader design — the paper's argument for transparency.
    """
    best = max(offers, key=lambda offer: (offer.score, offer.host))
    return best.reference
