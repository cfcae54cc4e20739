#!/usr/bin/env python3
"""Design a trap-expansion protocol and audit it end to end.

We pick a tenfold expansion (gamma = 10) and interpolate the scaling
function b(t) with the quintic ansatz.  ``protocols.build`` returns the
design as one record: the curve, and the trap control omega^2(t) read off the
Ermakov equation bddot + omega^2 b = 1/b^3.  Then we close the loop:
integrating that control forward must reproduce the curve we designed.
"""
import numpy as np

from staexpand import TrapSpec, ermakov, protocols

spec = TrapSpec.from_gamma(10.0)
t_f = 25.0  # units of 1/omega0

design = protocols.build(spec, protocols.ProtocolParams("quintic", t_f))
curve = design.curve
# the inverse-engineering step, omega^2 = 1/b^4 - bddot/b at every node,
# is what build ran to fill design.profile
profile = ermakov.inverse_engineer(curve)
assert np.array_equal(profile.omega2, design.profile.omega2)

print("quintic protocol, gamma = 10, t_f = 25/omega0")
print(f"  boundaries: b(0) = {curve.b[0]:.1f}, b(t_f) = {curve.b[-1]:.1f}, "
      f"bdot ends = ({curve.bdot[0]:.1e}, {curve.bdot[-1]:.1e})")
print(f"  control endpoints: omega^2(0)/omega0^2 = {profile.omega2[0]:.6f}, "
      f"omega^2(t_f)/omega0^2 = {profile.omega2[-1]:.6f}")
print(f"  imaginary-frequency band: {profile.has_imaginary} "
      f"(min omega^2 = {profile.omega2.min():+.5f})")
print(f"  Ermakov residual of the pair: {ermakov.ermakov_residual(curve, profile):.2e}")

redone = ermakov.forward_solve(profile)
print(f"  forward-solve round trip, max |b - b_designed|: "
      f"{np.max(np.abs(redone.b - curve.b)):.2e}")

# the same expansion done fast needs an expelling (omega^2 < 0) stretch
fast_profile = protocols.build(spec, protocols.ProtocolParams("quintic", 1.0)).profile
print(f"\nsame design at t_f = 1/omega0: min omega^2/omega0^2 = "
      f"{fast_profile.omega2.min():+.1f}  (inverted potential needed)")

print("\n       s        b(s)    omega^2/omega0^2")
for s in (0.0, 0.25, 0.5, 0.75, 1.0):
    i = int(s * (len(curve.grid) - 1))
    print(f"  {s:6.2f}  {curve.b[i]:9.4f}  {profile.omega2[i]:+.6f}")
