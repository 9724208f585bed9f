"""50-digit mpmath forms of the working-point objectives.

Each form takes the double inputs at face value and works at 50 digits, so
a library value can be compared with the exact value of its own inputs.
The forms are written from the cycle's physics, not copied from
``closed_forms``: the entropy reduction is the drop of the register's
thermal entropy from bias ``eps_s`` to ``eps_a``, the reset heat is half the
ancilla gap times the bias the ancilla gave up, and the total work is that
heat minus the register's energy drop.  Energies are over ``T``.
"""

import mpmath

DPS = 50


def _entropy(eps):
    """Entropy in nats of a qubit with populations (1 -+ eps) / 2."""
    return sum(-q * mpmath.log(q) for q in ((1 - eps) / 2, (1 + eps) / 2) if q > 0)


def _energies(eps_s, eps_a, phi):
    """(P, Q / T, W / T) at (eps_s, eps_a, phi), as mpf at the working precision."""
    es, ea, s = mpmath.mpf(eps_s), mpmath.mpf(eps_a), mpmath.sin(mpmath.mpf(phi))
    p = _entropy(es) - _entropy(ea)
    q = mpmath.atanh(ea) * (ea - es * s)          # (omega_a / 2T) x bias given up
    de_s = mpmath.atanh(es) * (ea * s - es)       # (omega_s / 2T) x bias gained
    return p, q, q - de_s


def objective(name, eps_s, phi):
    """The objective ``name`` as a function of eps_a (chi divided by T)."""
    def f(eps_a):
        p, q, w = _energies(eps_s, eps_a, phi)
        return {"cop": p / w, "eta": p / q, "chi": p * p / w}[name]
    return f


def central_difference(name, eps_s, phi, eps_a, h=mpmath.mpf("1e-25")):
    """(f(eps_a + h) - f(eps_a - h)) / 2h at 50 digits."""
    with mpmath.workdps(DPS):
        f, x = objective(name, eps_s, phi), mpmath.mpf(eps_a)
        return (f(x + h) - f(x - h)) / (2 * h)


def working_point(name, eps_s, phi, lo, hi):
    """The root of the objective's derivative in [lo, hi], at 50 digits.

    The derivative must change sign on the bracket; the root is refined by
    the Anderson-Bjorck bracketing solver, so it stays inside it.
    """
    with mpmath.workdps(DPS):
        d = lambda x: mpmath.diff(objective(name, eps_s, phi), x)
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        if not d(a) > 0 > d(b):
            raise ValueError(f"no sign change of d{name}/d eps_a on [{lo!r}, {hi!r}]")
        return mpmath.findroot(d, (a, b), solver="anderson", tol=mpmath.mpf(10) ** -40)
