"""
Turbo decoding waterfall
========================

A rate-1/3 parallel turbo code built from two (7,5) recursive systematic
encoders.  Above the waterfall SNR the extrinsic information exchanged
between the component decoders grows every iteration and the bit error
rate collapses; far below it, the exchange stalls and iterations stop
helping.
"""

from infoplay import simulate_turbo

N_INFO = 1024
BLOCKS = 20
ITERS = 8

for ebn0_db in (2.0, 1.0, -5.0):
    trace = simulate_turbo(N_INFO, ebn0_db, BLOCKS, max_iters=ITERS, seed=7)
    print(f"\nEb/N0 = {ebn0_db:+.1f} dB ({BLOCKS} blocks of {N_INFO} bits)")
    print("iter   I_E(dec1)  I_E(dec2)   BER")
    # mean over blocks, one row per iteration
    means = zip(*(values.mean(axis=0) for values in trace))
    for it, (ie1, ie2, ber) in enumerate(means, start=1):
        print(f"{it:3d}    {ie1:8.3f}   {ie2:8.3f}   {ber:.2e}")
