#!/usr/bin/env python3
"""Where the transient energy goes, and what delta kicks buy.

The impulse protocol (quasi-optimal interior closed by two delta kicks of
the spring constant) attains the least possible time-averaged energy.  The
kicks themselves carry a finite share of that average; for fast strong
expansions it is exactly half.  Equipartition between averaged kinetic and
potential energy holds for every complete protocol, kicks included.
"""
from staexpand import TrapSpec, energies, protocols

spec = TrapSpec.from_gamma(10.0)

print("impulse protocol at gamma = 10  (energies in hbar*omega0)")
print("    t_f     avg_E     bound E_nL   kick share   |K-V|/E")
for t_f in (0.3, 1.0, 3.0, 10.0):
    p = protocols.build(spec, protocols.ProtocolParams("dirac", t_f))
    curve, profile = p.curve, p.profile
    tr = energies.averages(
        energies.instantaneous(curve, profile, spec), curve, spec, profile
    )
    bound = energies.lower_bound_avg_energy(spec, t_f)
    print(f"  {t_f:5.1f}  {tr.avg_E:9.4f}  {bound.value:11.4f}  "
          f"{tr.delta_delta / tr.avg_E:10.4f}  {abs(tr.avg_K - tr.avg_V) / tr.avg_E:.1e}")

print("\nkick strengths at t_f = 1/omega0 (units of omega0):")
for t, strength in protocols.build(spec, protocols.ProtocolParams("dirac", 1.0)).profile.impulses:
    print(f"  t = {t:4.1f}: D = {strength:+.6f}")

print("\nfast strong expansion (gamma = 100, t_f = 1e-3/omega0):")
spec100 = TrapSpec.from_gamma(100.0)
p = protocols.build(spec100, protocols.ProtocolParams("dirac", 1e-3))
curve, profile = p.curve, p.profile
tr = energies.averages(
    energies.instantaneous(curve, profile, spec100), curve, spec100, profile
)
print(f"  kick share of avg_E = {tr.delta_delta / tr.avg_E:.6f}  (half, asymptotically)")

print("\nsmooth protocols have no kick term; equipartition still holds:")
for name, p in (
    ("quintic", protocols.build(spec, protocols.ProtocolParams("quintic", 10.0))),
    ("septic ", protocols.build(spec, protocols.ProtocolParams("septic", 10.0, 78.5088, -459.7638))),
):
    curve, profile = p.curve, p.profile
    tr = energies.averages(energies.instantaneous(curve, profile, spec), curve, spec, profile)
    print(f"  {name}: avg_K = {tr.avg_K:8.4f}, avg_V = {tr.avg_V:8.4f}, "
          f"kick term = {tr.delta_delta:.1e}")
