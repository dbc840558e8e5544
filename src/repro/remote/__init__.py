"""Remote processing: device-local samples backed by a simulated server.

A *model* of the paper's Section 2.9 split deployment, not a transport:
the building blocks (server, simulated link, per-rowid client) and
:class:`RemoteExplorationService`, which composes them with the local
backend's front half into a full gesture-speaking backend behind the
exploration-service protocol.  Real sockets live in :mod:`repro.serving`.
"""

from repro.remote.client import RemoteExplorationClient, RemotePolicy
from repro.remote.network import LAN, WAN, NetworkProfile, NetworkStats, SimulatedLink
from repro.remote.server import RemoteServer
from repro.remote.service import RemoteExplorationService

__all__ = [
    "LAN",
    "WAN",
    "NetworkProfile",
    "NetworkStats",
    "RemoteExplorationClient",
    "RemoteExplorationService",
    "RemotePolicy",
    "RemoteServer",
    "SimulatedLink",
]
