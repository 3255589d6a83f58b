"""``repro.serve`` — the batched simulation service (front door).

The serving stack turns the one-shot CLI machinery into a long-lived
local service: short ``mobility.apply`` requests are coalesced across
clients into single :meth:`~repro.pme.operator.PMEOperator.apply_block`
calls (the paper's Section IV.E block-of-vectors economics applied to
*traffic* instead of a single caller), long ``simulate`` jobs run as
supervised single-task campaigns with progress streaming and graceful
cancellation, and everything is guarded by admission control; finished
``simulate`` results land in a deterministic result cache.  See
``docs/api.md`` ("Serving") for the protocol and semantics.
"""

from .admission import AdmissionController, Shed
from .batching import MobilityBatcher, OperatorPool
from .cache import ResultCache, SingleFlight
from .client import ServeClient, ServeRequestError, ServerBusy
from .jobs import JobManager, SimulateJob
from .protocol import PROTOCOL, ProtocolError, SystemSpec
from .service import ServeSettings, SimulationService

__all__ = [
    "PROTOCOL", "ProtocolError", "SystemSpec",
    "ResultCache", "SingleFlight",
    "OperatorPool", "MobilityBatcher",
    "AdmissionController", "Shed",
    "JobManager", "SimulateJob",
    "ServeSettings", "SimulationService",
    "ServeClient", "ServerBusy", "ServeRequestError",
]
