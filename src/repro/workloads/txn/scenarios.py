"""Transactional datacenter scenarios over Zipf-popular objects.

Four registered workloads (after pmsim's transaction mixes) stress AMO
placement with request-style traffic instead of HPC sync structure:

* ``KVS`` — key-value get/set under per-key locks (medium APKI);
* ``BOOK`` — bookstore browse/add-to-cart/checkout with AMO-only
  popularity counters plus locked checkout transactions (high APKI);
* ``BANK`` — lock-free two-account transfers whose debit/credit
  ``stadd`` pairs conserve the balance sum (high APKI);
* ``TXMIX`` — read-heavy (default, low APKI) or write-heavy
  (optimistic, retry-accounted) transaction mix.

All four draw object ranks from per-thread seeded
:class:`~repro.workloads.txn.zipf.ZipfSampler` streams, so contention
concentrates on the Zipf head exactly as the exponent dictates.  The
``KVS``/``TXMIX`` input names select the exponent (``zipf-<alpha>``),
which is what the ``txn`` figure sweeps.
"""

from __future__ import annotations

import random
from typing import List

from repro.frontend import isa
from repro.frontend.program import GeneratorProgram, Program
from repro.workloads.base import Workload, WorkloadSpec, register
from repro.workloads.txn.runtime import TxnRuntime
from repro.workloads.txn.zipf import DEFAULT_ALPHA, ZipfSampler

#: Zipf-exponent input variants of the family (default first).
ZIPF_INPUTS = ("zipf-1.1", "zipf-0.5", "zipf-0.8", "zipf-1.4")

#: Every account starts with this balance; transfers conserve the sum.
BANK_INITIAL_BALANCE = 100


def alpha_from_input(input_name: str) -> float:
    """Parse the Zipf exponent out of a ``zipf-<alpha>`` input name."""
    prefix, _, raw = input_name.partition("-")
    if prefix != "zipf" or not raw:
        raise ValueError(f"not a zipf input name: {input_name!r}")
    return float(raw)


class TxnWorkload(Workload):
    """Common plumbing: runtime table + per-thread rng/sampler streams."""

    #: objects in the table at scale 1.0 (subclasses override).
    base_objects = 48
    alpha = DEFAULT_ALPHA

    def __init__(self, num_threads, scale=1.0, seed=0, input_name=None):
        super().__init__(num_threads, scale, seed, input_name)
        self.num_objects = self.scaled(self.base_objects, minimum=2)
        self.runtime = TxnRuntime(self.layout, self.num_objects)

    def thread_rng(self, tid: int) -> random.Random:
        return random.Random(self.seed * 977 + tid)

    def thread_sampler(self, tid: int) -> ZipfSampler:
        return ZipfSampler(self.num_objects, self.alpha,
                           seed=self.seed * 1013 + tid)


@register
class KVStore(TxnWorkload):
    """Key-value store: Zipf-popular get/set under per-key locks."""

    spec = WorkloadSpec(
        code="KVS", name="KV store", suite="txn", input_name=ZIPF_INPUTS[0],
        primitives="spinlock + stadd", intensity="M",
        description="get/set transactions over Zipf-popular keys",
        inputs=ZIPF_INPUTS)

    #: fraction of transactions that are sets (writes).
    set_fraction = 0.3

    def __init__(self, num_threads, scale=1.0, seed=0, input_name=None):
        super().__init__(num_threads, scale, seed, input_name)
        self.alpha = alpha_from_input(self.input_name)
        self.txns_per_thread = self.scaled(90)

    @property
    def total_txns(self) -> int:
        """Transactions committed across all threads."""
        return self.txns_per_thread * self.num_threads

    def programs(self) -> List[Program]:
        def body(tid: int):
            rng = self.thread_rng(tid)
            sampler = self.thread_sampler(tid)
            for _ in range(self.txns_per_thread):
                yield isa.think(400)
                key = sampler.sample()
                if rng.random() < self.set_fraction:
                    yield from self.runtime.transaction(
                        tid, writes={key: rng.randrange(1, 1 << 16)},
                        rng=rng)
                else:
                    yield from self.runtime.transaction(tid, reads=[key],
                                                        rng=rng)

        return [GeneratorProgram(body) for _ in range(self.num_threads)]


@register
class BookStore(TxnWorkload):
    """Bookstore: browse + add-to-cart counters, locked checkouts."""

    spec = WorkloadSpec(
        code="BOOK", name="Bookstore", suite="txn", input_name="storefront",
        primitives="spinlock + stadd", intensity="H",
        description="add-to-cart popularity counters + checkout txns",
        inputs=("storefront",))

    base_objects = 32
    #: one checkout transaction per this many browse rounds.
    checkout_every = 4

    def __init__(self, num_threads, scale=1.0, seed=0, input_name=None):
        super().__init__(num_threads, scale, seed, input_name)
        self.rounds_per_thread = self.scaled(80)
        # AMO-only popularity counter per book + one cart word per
        # thread (each on its own block; carts are thread-private).
        self.popularity_addrs = self.layout.alloc_array(self.num_objects, 64)
        self.cart_addrs = self.layout.alloc_array(num_threads, 64)

    def programs(self) -> List[Program]:
        def body(tid: int):
            rng = self.thread_rng(tid)
            sampler = self.thread_sampler(tid)
            cart = self.cart_addrs[tid]
            for round_no in range(self.rounds_per_thread):
                yield isa.think(80)
                book = sampler.sample()
                # Browse bumps the shared popularity counter (dataless),
                # add-to-cart bumps the private cart tally.
                yield isa.stadd(self.popularity_addrs[book], 1)
                yield isa.stadd(cart, 1)
                if (round_no + 1) % self.checkout_every == 0:
                    yield from self.runtime.transaction(
                        tid, reads=[book],
                        writes={book: rng.randrange(1, 100)}, rng=rng)

        return [GeneratorProgram(body) for _ in range(self.num_threads)]


@register
class BankTransfer(TxnWorkload):
    """Bank: lock-free conserved transfers between Zipf-popular accounts."""

    spec = WorkloadSpec(
        code="BANK", name="Bank transfers", suite="txn", input_name="ledger",
        primitives="stadd + ldadd", intensity="H",
        description="two-account stadd transfers conserving the balance sum",
        inputs=("ledger",))

    base_objects = 24
    #: one two-account audit (atomic reads) per this many transfers.
    audit_every = 8

    def __init__(self, num_threads, scale=1.0, seed=0, input_name=None):
        super().__init__(num_threads, scale, seed, input_name)
        self.transfers_per_thread = self.scaled(100)

    @property
    def total_transfers(self) -> int:
        return self.transfers_per_thread * self.num_threads

    @property
    def expected_total_balance(self) -> int:
        """The conserved quantity: sum of all balances, any time."""
        return BANK_INITIAL_BALANCE * self.num_objects

    def initial_values(self):
        return self.runtime.initial_balances(BANK_INITIAL_BALANCE)

    def programs(self) -> List[Program]:
        def body(tid: int):
            rng = self.thread_rng(tid)
            sampler = self.thread_sampler(tid)
            for transfer_no in range(self.transfers_per_thread):
                yield isa.think(120)
                source, target = sampler.sample_distinct(2)
                yield from self.runtime.transfer(source, target,
                                                 rng.randrange(1, 10))
                if (transfer_no + 1) % self.audit_every == 0:
                    yield from self.runtime.audit((source, target))

        return [GeneratorProgram(body) for _ in range(self.num_threads)]


@register
class TxMix(TxnWorkload):
    """Configurable mix: read-heavy (default) or optimistic write-heavy."""

    spec = WorkloadSpec(
        code="TXMIX", name="Transaction mix", suite="txn",
        input_name="read-heavy",
        primitives="spinlock + stadd/ldadd", intensity="L",
        description="read-heavy or write-heavy transaction mix",
        inputs=("read-heavy", "write-heavy"))

    base_objects = 32

    def __init__(self, num_threads, scale=1.0, seed=0, input_name=None):
        super().__init__(num_threads, scale, seed, input_name)
        self.write_heavy = self.input_name == "write-heavy"
        self.write_fraction = 0.6 if self.write_heavy else 0.1
        self.think_cycles = 300 if self.write_heavy else 2000
        self.txns_per_thread = self.scaled(60)

    @property
    def total_txns(self) -> int:
        return self.txns_per_thread * self.num_threads

    def programs(self) -> List[Program]:
        def body(tid: int):
            rng = self.thread_rng(tid)
            sampler = self.thread_sampler(tid)
            optimistic = self.write_heavy
            for _ in range(self.txns_per_thread):
                yield isa.think(self.think_cycles)
                first, second = sampler.sample_distinct(2)
                if rng.random() < self.write_fraction:
                    yield from self.runtime.transaction(
                        tid, reads=[first], writes={second: rng.randrange(
                            1, 1 << 16)}, rng=rng, optimistic=optimistic)
                else:
                    yield from self.runtime.transaction(
                        tid, reads=[first, second], rng=rng,
                        optimistic=optimistic)

        return [GeneratorProgram(body) for _ in range(self.num_threads)]
