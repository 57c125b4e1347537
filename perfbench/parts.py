"""The parts a round's ``run`` is split into: grid indexes 0..99 in tenths.

Each part is a ``run --subset LO..HI`` pass of its own (1,600 of the 16,000
instances), so one round times the run stage ten times.
"""

PARTS = tuple((lo, lo + 9) for lo in range(0, 100, 10))
