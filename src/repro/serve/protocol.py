"""The ``repro-serve/1`` wire protocol: JSON lines over a local socket.

Every message is one JSON object on one ``\\n``-terminated line.
Clients send *requests* (``op`` + ``id``); the server answers with
exactly one *response* per request (same ``id``, a ``status`` field),
optionally preceded by streamed *events* (same ``id``, an ``event``
field) for long-running jobs.  Three response statuses exist:

* ``"ok"``     — the request completed; payload under ``"result"``;
* ``"shed"``   — admission control refused the request *before*
  queueing it (bounded queues, per-client caps).  The response carries
  ``retry_after`` seconds, the ``Retry-After`` discipline: the client
  backs off instead of the server buffering unboundedly;
* ``"error"``  — the request was admitted but failed; carries the
  :class:`~repro.resilience.failures.FailureKind` classification and
  the message.

Arrays cross the wire as raw little-endian float64 bytes in base64
(``{"shape": [...], "b64": "..."}``) so responses are **bit-exact** —
the currency of the determinism contract: a served mobility apply must
equal a direct :meth:`~repro.pme.operator.PMEOperator.apply_block`
call byte for byte.  Plain JSON lists of numbers are accepted on input
for hand-written clients.

:class:`SystemSpec` is the deterministic system recipe shared by
``mobility.apply`` and ``simulate`` requests.  Its
:meth:`~SystemSpec.fingerprint` folds in the result-affecting
:class:`~repro.config.RuntimeConfig` knob (``no_ckernel`` — backends
are bit-identical, kernel modes are not), so the batching scheduler
only ever coalesces requests that are provably answerable by one
operator, and a served simulation's job directory — named after the
fingerprint — never answers with bytes produced under a different
kernel configuration.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np

from ..config import get_config
from ..errors import ReproError
from ..pme.tuning import VALIDATED_ORDERS

__all__ = ["PROTOCOL", "ProtocolError", "SystemSpec", "encode_array",
           "decode_array", "encode_message", "decode_line",
           "shed_response", "error_response", "ok_response",
           "MAX_LINE_BYTES"]

#: Protocol identifier sent in every ``ping`` response.
PROTOCOL = "repro-serve/1"

#: Hard cap on one wire line (requests beyond it are a protocol error
#: long before admission control sees them).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Known request operations.
OPS = ("ping", "stats", "mobility.apply", "simulate", "cancel")


class ProtocolError(ReproError):
    """Malformed request: bad JSON, unknown op, invalid payload."""


# ----------------------------------------------------------------------
# array codec
# ----------------------------------------------------------------------

def encode_array(array: np.ndarray) -> dict[str, Any]:
    """Exact-bytes wire form of a float64 array."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    return {"shape": list(arr.shape),
            "b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(obj: Any, what: str = "array") -> np.ndarray:
    """Decode the wire form (or a plain nested list) to float64."""
    if isinstance(obj, dict):
        try:
            shape = tuple(int(d) for d in obj["shape"])
            raw = base64.b64decode(obj["b64"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed {what}: {exc}") from None
        expected = 8 * int(np.prod(shape)) if shape else 8
        if len(raw) != expected:
            raise ProtocolError(
                f"{what}: payload is {len(raw)} bytes, shape {shape} "
                f"needs {expected}")
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if isinstance(obj, list):
        try:
            return np.asarray(obj, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed {what}: {exc}") from None
    raise ProtocolError(
        f"{what} must be a {{shape, b64}} object or a number list, "
        f"got {type(obj).__name__}")


# ----------------------------------------------------------------------
# system specification + fingerprints
# ----------------------------------------------------------------------

#: Fields that determine the mobility operator (and therefore which
#: requests may share one batched ``apply_block``).
_OPERATOR_FIELDS = ("n", "phi", "system_seed", "e_p", "p")


@dataclass(frozen=True)
class SystemSpec:
    """Deterministic recipe of one served system.

    ``n``/``phi``/``system_seed`` generate the suspension exactly as
    :func:`~repro.systems.suspension.make_suspension` does; ``e_p`` and
    ``p`` select the tuned PME parameters, and are checked here, before
    any worker builds a suspension or runs the tuner; ``dt``/``lambda_rpy``/
    ``e_k``/``forces`` only matter to ``simulate`` requests but are
    part of the full fingerprint, which names the job directory that
    holds a served simulation's result.
    """

    n: int
    phi: float = 0.2
    system_seed: int = 0
    e_p: float = 1e-3
    p: int = 6
    dt: float = 1e-3
    lambda_rpy: int = 16
    e_k: float = 1e-2
    forces: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 1_000_000:
            raise ProtocolError(f"n must be in [1, 1e6], got {self.n}")
        if not 0.0 < self.phi < 0.64:
            raise ProtocolError(f"phi must be in (0, 0.64), got {self.phi}")
        if self.e_p <= 0 or self.e_k <= 0:
            raise ProtocolError("e_p and e_k must be positive")
        if self.p not in VALIDATED_ORDERS:
            raise ProtocolError(
                f"p must be one of {list(VALIDATED_ORDERS)}, got {self.p}")
        if self.dt <= 0:
            raise ProtocolError(f"dt must be positive, got {self.dt}")
        if self.lambda_rpy < 1:
            raise ProtocolError(
                f"lambda_rpy must be >= 1, got {self.lambda_rpy}")

    @classmethod
    def from_json(cls, obj: Any) -> "SystemSpec":
        if not isinstance(obj, dict):
            raise ProtocolError("'system' must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ProtocolError(
                f"unknown system fields: {sorted(unknown)} "
                f"(known: {sorted(known)})")
        if "n" not in obj:
            raise ProtocolError("'system.n' is required")
        try:
            return cls(**obj)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid system spec: {exc}") from None

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    def _digest(self, payload: dict[str, Any]) -> str:
        payload = dict(payload)
        # the one RuntimeConfig knob that changes result *bytes*:
        # backend choice is bit-identical by the exec-layer contract,
        # the compiled-vs-NumPy kernel mode is not
        payload["no_ckernel"] = get_config().no_ckernel
        payload["schema"] = PROTOCOL
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def fingerprint(self) -> str:
        """Digest of every result-affecting field + runtime config."""
        return self._digest(self.to_json())

    def operator_key(self) -> str:
        """Digest of the fields that determine the mobility operator.

        Requests with equal operator keys are answerable by the same
        :class:`~repro.pme.operator.PMEOperator` and may therefore be
        coalesced into one batched apply.
        """
        payload = {name: getattr(self, name) for name in _OPERATOR_FIELDS}
        return self._digest(payload)


# ----------------------------------------------------------------------
# message framing
# ----------------------------------------------------------------------

def encode_message(message: dict[str, Any]) -> bytes:
    """One wire line (JSON + newline) for a message object."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a message object."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"line exceeds {MAX_LINE_BYTES} bytes")
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def validate_request(message: dict[str, Any]) -> str:
    """Check the envelope of a request; returns the op name."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (known: {', '.join(OPS)})")
    if not isinstance(message.get("id"), (str, int)):
        raise ProtocolError("request 'id' must be a string or integer")
    return str(op)


def ok_response(request: dict[str, Any],
                result: dict[str, Any]) -> dict[str, Any]:
    """The single success response of a request."""
    return {"id": request.get("id"), "op": request.get("op"),
            "status": "ok", "result": result}


def shed_response(request: dict[str, Any], reason: str,
                  retry_after: float) -> dict[str, Any]:
    """Admission refusal with a Retry-After hint (seconds)."""
    return {"id": request.get("id"), "op": request.get("op"),
            "status": "shed", "reason": reason,
            "retry_after": round(float(retry_after), 4)}


def error_response(request: dict[str, Any], kind: str,
                   message: str) -> dict[str, Any]:
    """Failure response carrying the resilience-taxonomy kind."""
    return {"id": request.get("id"), "op": request.get("op"),
            "status": "error", "kind": kind, "message": message}
