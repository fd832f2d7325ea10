"""Points of the singular suspension, the flow, and chain distances.

Run:  python demos/flow_geometry_demo.py
"""

import math
import time

from singflow import (HORIZONTAL, VERTICAL, BitSequence, FlowPoint, Harmonic,
                      RoofFunction, UnitPoint, bw_distance_upper, flow,
                      flow_point, flowpoints_close, format_sequence_literal,
                      pair_length, parse_sequence_literal, roof_eval, shift,
                      singular_point, unit_roof_extension)

harm = RoofFunction.from_profile(Harmonic(1.0))

# The roof vanishes exactly at the zero sequence, which the flow fixes.
star = singular_point()
print("singular fiber is fixed:", flow(star, 7.3, harm) == star)

# Away from it, flowing peels roof levels one shift at a time.
x = parse_sequence_literal("0*|1001|0*")
p = flow_point(harm, x, 0.0)
for t in (0.5, 1.0, 1.4, 2.0):
    q = flow(p, t, harm)
    print(f"  t={t:4.1f} ->  base {format_sequence_literal(q.base):22s} "
          f"height {q.height:.3f} / roof {roof_eval(harm, q.base):.3f}")
print()

# Out along the zero tail of a single 1 the roofs 1/k vanish but sum to
# infinity, so the orbit goes on; inside a run of zeros the flow crosses all
# but its last levels in one step, by the partial-sum law of 1/k.  After time
# 1 + gamma + 40 log 2 it is about 2^40 positions out.
tail = flow_point(harm, BitSequence.from_ones([0]), 0.0)
t = 1 + 0.5772156649015329 + 40 * math.log(2)
start = time.perf_counter()
far = flow(tail, t, harm, max_crossings=2 ** 41)
elapsed = time.perf_counter() - start
out = tail.base.start - far.base.start
print(f"after t={t:.4f} on the zero tail: {out} positions out "
      f"(2^{math.log2(out):.4f}), in {elapsed * 1e3:.2f} ms")
back = flow(far, -t, harm, max_crossings=2 ** 41)
print("flowing back returns to the start:", flowpoints_close(back, tail, harm, 1e-12))
print()

# Chain geometry: pairs are horizontal (equal normalized height) or
# vertical (same or adjacent fiber), and distances are least chain lengths.
unit = RoofFunction.const(1.0)
a = FlowPoint(x, 0.2)
b = FlowPoint(x, 0.7)
print("vertical pair on one fiber:", pair_length(a, b, VERTICAL, unit))
y = parse_sequence_literal("0*|1101|0*")
print("horizontal pair at height 0.5:",
      pair_length(FlowPoint(x, 0.5), FlowPoint(y, 0.5), HORIZONTAL, unit))

for budget in (2, 3, 4, 8):
    d = bw_distance_upper(FlowPoint(x, 0.1), FlowPoint(shift(y, 1), 0.6),
                          unit, budget)
    print(f"  chain bound with budget {budget}: {d:.6f}")
print()

# The unit-roof suspension of the time-1 map projects back onto the flow.
pi = unit_roof_extension(harm)
up = UnitPoint(p, 0.4)
print("projection of a unit-suspension point:", pi(up))
lhs = pi(pi.advance(up, 1.7))
rhs = flow(pi(up), 1.7, harm)
print("equivariance at t=1.7:",
      lhs.base == rhs.base and abs(lhs.height - rhs.height) < 1e-9)
