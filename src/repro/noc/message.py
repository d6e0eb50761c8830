"""Message taxonomy and traffic accounting for the NoC.

The energy study (paper Section VI-E) attributes NoC dynamic energy to the
number and size of messages sent.  We therefore classify every protocol
message the transaction flows of Fig. 2 generate, with a flit count per
class (control messages are single-flit; data-carrying messages add the
64-byte payload).

``MsgType`` is integer-backed so the per-message count update in
:meth:`Mesh.record <repro.noc.mesh.Mesh.record>` — the single most
frequent accounting call in a simulation — hashes a small int instead of
going through ``Enum.__hash__``; ``flits`` is a precomputed member
attribute for the same reason.
"""

from __future__ import annotations

import enum
from typing import Dict

#: Flits per 64B cache-block payload on a 16B-flit network, plus header.
DATA_FLITS = 5
#: Flits per control / dataless message.
CTRL_FLITS = 1


class MsgType(int, enum.Enum):
    """Protocol message classes (name -> carries data?)."""

    # Precomputed member attributes (annotation-only for type checkers).
    description: str
    carries_data: bool
    flits: int

    def __new__(cls, code: int, description: str,
                carries_data: bool) -> "MsgType":
        obj = int.__new__(cls, code)
        obj._value_ = code
        obj.description = description
        obj.carries_data = carries_data
        obj.flits = DATA_FLITS if carries_data else CTRL_FLITS
        return obj

    READ_REQ = (0, "ReadShared/ReadUnique request", False)
    ATOMIC_REQ = (1, "AtomicLoad/AtomicStore request", True)  # carries operand
    SNOOP = (2, "Snoop request", False)
    SNOOP_RESP = (3, "Snoop response (dataless)", False)
    SNOOP_DATA = (4, "Snoop response with data", True)
    COMP_DATA = (5, "CompData (block to requestor)", True)
    COMP_ACK = (6, "Comp / CompAck (dataless)", False)
    AMO_DATA = (7, "AtomicLoad old-value return", False)  # 8B, single flit
    WRITEBACK = (8, "WriteBack / CopyBack data", True)
    EVICT_NOTIFY = (9, "Clean evict notification", False)
    MEM_READ = (10, "Memory read command", False)
    MEM_DATA = (11, "Memory data return", True)
    MEM_WRITE = (12, "Memory write (block)", True)


#: The message classes as module constants for the transaction handlers,
#: which name one per message they send (a member load on the Enum class
#: costs several global loads; DESIGN.md §9).
READ_REQ = MsgType.READ_REQ
ATOMIC_REQ = MsgType.ATOMIC_REQ
SNOOP = MsgType.SNOOP
SNOOP_RESP = MsgType.SNOOP_RESP
SNOOP_DATA = MsgType.SNOOP_DATA
COMP_DATA = MsgType.COMP_DATA
COMP_ACK = MsgType.COMP_ACK
AMO_DATA = MsgType.AMO_DATA
WRITEBACK = MsgType.WRITEBACK
EVICT_NOTIFY = MsgType.EVICT_NOTIFY
MEM_READ = MsgType.MEM_READ
MEM_DATA = MsgType.MEM_DATA
MEM_WRITE = MsgType.MEM_WRITE


#: A count of zero for every message class.  Each meter starts from a
#: copy: 0.1 µs, against 2.9 µs to iterate the Enum class again.
_ZERO_COUNTS: Dict[MsgType, int] = dict.fromkeys(MsgType, 0)


class TrafficMeter:
    """Counts messages, flits and hop-flits crossing the NoC.

    ``messages`` is a plain dict seeded with every :class:`MsgType` at
    zero: the interpreter's specialised item access applies to an exact
    dict only, so a ``+=`` on it costs about a third of one on a
    ``Counter``.
    """

    __slots__ = ("messages", "flit_hops", "flits")

    def __init__(self) -> None:
        self.messages: Dict[MsgType, int] = _ZERO_COUNTS.copy()
        self.flit_hops = 0
        self.flits = 0

    def record(self, msg: MsgType, hops: int, count: int = 1) -> None:
        """Record ``count`` messages of class ``msg`` travelling ``hops``."""
        self.messages[msg] += count
        flits = msg.flits * count
        self.flits += flits
        self.flit_hops += flits * hops

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def by_type(self) -> Dict[str, int]:
        """Counts of the classes sent at least once, keyed by enum name
        (stable for reports/tests)."""
        return {msg.name: n for msg, n in sorted(
            self.messages.items(), key=lambda kv: kv[0].name) if n}

    def merge(self, other: "TrafficMeter") -> None:
        """Accumulate ``other`` into this meter."""
        messages = self.messages
        for msg, n in other.messages.items():
            messages[msg] += n
        self.flit_hops += other.flit_hops
        self.flits += other.flits
