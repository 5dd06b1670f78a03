"""The *Winner* resource management system.

"Basically, Winner provides load distribution services for a network of
Unix workstations.  Its components of interest here are the central system
manager and the node managers.  There is one node manager on each
participating workstation, periodically measuring the node's performance
and system load, i.e. data like CPU utilization which is collected by the
host operating system.  This data is sent to the system manager, which has
functionality to determine the machine with the currently best
performance." (§2)

This package reproduces exactly that pipeline on the simulated NOW:

* :mod:`repro.winner.metrics` — load samples, EWMA smoothing and the
  location policy every manager shares: the host score
  (:func:`~repro.winner.metrics.expected_rate`) and the site ranker
  (:func:`~repro.winner.metrics.best_of` over
  :class:`~repro.winner.metrics.SiteSummary` rollups);
* :mod:`repro.winner.protocol` — the report datagrams (CDR-encoded);
* :mod:`repro.winner.node_manager` — the per-host measuring daemon;
* :mod:`repro.winner.system_manager` — the central collector and ranker,
  whose ``place()`` is the one placement call (best live candidate host,
  charged so burst resolutions spread across hosts);
* :mod:`repro.winner.service` — the CORBA servant wrapping the system
  manager for the naming service's use (the integration of Fig. 1);
* :mod:`repro.winner.hierarchy` and :mod:`repro.winner.federation` — the
  site → region tree of the scale harness and the WAN meta manager.
"""

from repro.winner.metrics import Ewma, LoadSample, SiteSummary, VectorLoadBoard
from repro.winner.hierarchy import (
    HierarchicalWinner,
    RegionNode,
    SiteLoadManager,
)
from repro.winner.protocol import LoadReport, LoadReportDelta, decode_report
from repro.winner.node_manager import NodeManager
from repro.winner.system_manager import HostRecord, SystemManager
from repro.winner.federation import MetaManager, MetaStrategy

__all__ = [
    "Ewma",
    "HierarchicalWinner",
    "HostRecord",
    "LoadReport",
    "LoadReportDelta",
    "LoadSample",
    "decode_report",
    "MetaManager",
    "MetaStrategy",
    "NodeManager",
    "RegionNode",
    "SiteLoadManager",
    "SiteSummary",
    "SystemManager",
    "VectorLoadBoard",
]
