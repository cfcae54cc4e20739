"""One protocol request in one call, for the tests: ``make(spec, family,
t_f, n, **inputs)`` is the bundle ``protocols.build`` makes for
``ProtocolParams(family, t_f, grid_n=n, **inputs)``."""
from staexpand import protocols
from staexpand.core import DEFAULT_GRID_N


def make(spec, family, t_f=None, n=DEFAULT_GRID_N, **inputs):
    return protocols.build(spec, protocols.ProtocolParams(family, t_f, grid_n=n, **inputs))
