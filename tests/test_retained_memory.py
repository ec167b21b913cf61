"""A run keeps no share stacks: a transcript retains its own arrays and little more.

numpy reports its data buffers to ``tracemalloc``, so the bytes still
traced after a run, less those traced when tracing began, are what the
run left alive: its ``Transcript``.  That must stay within the bytes of
the transcript's inputs, noise, server products and decoded products
plus ``SLACK``, on a float tier, where the servers read the encoder's
floats, and on the limb tier, where the share stacks are made and freed
within the encoder and the products kept apart from them.  The shares
are derived on read, so the negative control, which holds the same
transcript together with its materialised share stacks, must go over
the bound.  The counts are traced bytes, not resident memory, so they
do not depend on the allocator or the host.
"""

import gc
import tracemalloc

import pytest

from pdmm.degree_tables import build_cat, optimal_gasp_r
from pdmm.protocol import ProtocolConfig, run_protocol

# Bytes a transcript may hold beyond its arrays' data: the Python objects
# around them.  Both cases below retain under 8 KiB of it.
SLACK = 64 * 1024

CASES = {
    "cat(2,2,2) quantum, float32": ProtocolConfig(
        plan=build_cat(2, 2, 2), dims=(64, 512, 64), mode="quantum", seed=1),
    "optimal gasp_r(2,2,3) classical, limbs": ProtocolConfig(
        plan=optimal_gasp_r(2, 2, 3), dims=(32, 256, 32), prime=2_000_000_000, seed=1),
}


def retained(cfg, keep):
    """(transcript, bytes still traced) after one run whose result ``keep`` holds.

    One untraced run first fills whatever the library caches per plan.
    """
    run_protocol(cfg)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        held = keep(run_protocol(cfg))
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held[0], end - start


def bound(t) -> int:
    arrays = (*t.a_inputs, *t.b_inputs, *t.noise_f, *t.noise_g, *t.responses, *t.decoded)
    return sum(x.nbytes for x in arrays) + SLACK


@pytest.mark.parametrize("name", CASES)
def test_a_transcript_retains_no_share_stacks(name):
    t, held = retained(CASES[name], lambda t: (t,))
    assert t.decode_ok
    assert bound(t) - SLACK <= held <= bound(t)


@pytest.mark.parametrize("name", CASES)
def test_the_bound_catches_materialised_share_stacks(name):
    t, held = retained(CASES[name], lambda t: (t, t.shares_f, t.shares_g))
    stacks = sum(x.nbytes for x in (*t.shares_f, *t.shares_g))
    assert stacks > SLACK and held > bound(t)
