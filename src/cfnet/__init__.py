"""Seeded simulator of temporally smoothed subnetwork partitioning.

Mobile users roam a unit square served by fixed base stations; each time step
the network is split into subnetworks by spectral clustering of a blend of the
current and previous interference graphs, trading per-instant sum rate against
partition stability (fewer handovers).
"""

from . import channel, clustering, graph, harness, metrics, oracle, topology

__version__ = "0.1.0"
