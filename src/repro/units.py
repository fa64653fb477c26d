"""Physical units and constants used across the package.

Internally the package uses one consistent unit system so values can be
combined without conversion factors sprinkled through the code:

========== ==================== ======
quantity   unit                 symbol
========== ==================== ======
time       nanoseconds          ns
capacitance femtofarads         fF
resistance kilo-ohms            kOhm
voltage    volts                V
power      milliwatts           mW
energy     picojoules           pJ
length     micrometers          um
area       square micrometers   um2
========== ==================== ======

Note the happy coincidence ``kOhm * fF == ps``; the delay calculator
multiplies resistance by capacitance and divides by 1000 to obtain ns.
"""

from __future__ import annotations

#: Multiply a kOhm * fF product by this to obtain nanoseconds.
RC_TO_NS = 1e-3

#: Square micrometers per square millimeter.
MM2_TO_UM2 = 1e6


def um2_to_mm2(area_um2: float) -> float:
    """Convert an area from square micrometers to square millimeters."""
    return area_um2 / MM2_TO_UM2
