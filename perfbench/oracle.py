"""Independent check of sampled ``Cyclo`` results against sympy.

Runs in the harness, after the timed passes.  Each sample holds a level
n, two field elements a and b, and grassq's a*b, a^-1 and conj(a) as
coefficient lists (lowest degree first).  sympy recomputes each one as a
remainder modulo ``cyclotomic_poly(n)``.
"""

from __future__ import annotations

from fractions import Fraction


def _poly(coeffs, x):
    return sum(Fraction(c) * x ** k for k, c in enumerate(coeffs))


def _agree(got, want) -> bool:
    return got == want


def mismatches(samples: list[dict]) -> list[str]:
    """Names of the sampled results sympy disagrees with."""
    import sympy
    x = sympy.Symbol("x")
    bad = []
    for k, s in enumerate(samples):
        n = s["level"]
        phi = sympy.cyclotomic_poly(n, x)
        a, b = _poly(s["a"], x), _poly(s["b"], x)

        def reduced(expr):
            coeffs = sympy.Poly(sympy.rem(sympy.expand(expr), phi, x),
                                x).all_coeffs()[::-1]
            coeffs += [0] * (sympy.degree(phi, x) - len(coeffs))
            return [Fraction(str(c)) for c in coeffs]

        want = {"product": reduced(a * b),
                "inverse": reduced(sympy.invert(a, phi, x)),
                "conj": reduced(a.subs(x, x ** (n - 1)))}
        for name, value in want.items():
            if not _agree([Fraction(c) for c in s[name]], value):
                bad.append(f"sample {k} (n={n}): {name}")
    return bad
