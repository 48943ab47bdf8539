"""Independent high-precision oracles shared by the test modules.

Each oracle recomputes an error probability from the port statistics (or,
for the optimum, from the photon-number sectors) at 40 significant digits
with mpmath, without touching ``phasekit``, and returns it as an ``mpf``.
Strengths are taken exactly as the float inputs the program sees.
"""

import mpmath as mp

DPS = 40


def _pmf(mean, n):
    return mp.e ** (-mean) * mean**n / mp.factorial(n)


def oracle_kennedy(alpha2, beta2):
    """Dark-port counting: the no-click probability at the dark port.

    The splitter with cos^2(phi) = beta^2 / (alpha^2 + beta^2) leaves port 2
    with mean (t*beta - r*alpha)^2 under PLUS and (t*beta + r*alpha)^2 under
    MINUS; a click there reads MINUS, silence reads PLUS.
    """
    with mp.workdps(DPS):
        a, b = mp.sqrt(mp.mpf(alpha2)), mp.sqrt(mp.mpf(beta2))
        h = mp.sqrt(a**2 + b**2)
        r, t = b / h, a / h
        dark_plus, dark_minus = (t * b - r * a) ** 2, (t * b + r * a) ** 2
        return ((1 - mp.e ** (-dark_plus)) + mp.e ** (-dark_minus)) / 2


def oracle_kennedy_asymptotic(alpha2):
    """Dark-port counting as the reference grows: the MINUS mean tends to 4 alpha^2."""
    with mp.workdps(DPS):
        return mp.e ** (-4 * mp.mpf(alpha2)) / 2


def oracle_homodyne(alpha2, beta2, terms=90):
    """High-precision double sum over the two port distributions."""
    with mp.workdps(DPS):
        a, b = mp.sqrt(mp.mpf(alpha2)), mp.sqrt(mp.mpf(beta2))
        mean_hi, mean_lo = (b + a) ** 2 / 2, (b - a) ** 2 / 2
        hi = [_pmf(mean_hi, n) for n in range(terms)]
        lo = [_pmf(mean_lo, n) for n in range(terms)]
        total = mp.mpf(0)
        for n in range(terms):
            for m in range(n + 1, terms):
                total += hi[n] * lo[m]
        total += mp.fsum(hi[n] * lo[n] for n in range(terms)) / 2
        return total


def oracle_homodyne_asymptotic(alpha2):
    """Count comparison in the Gaussian limit: erfc(sqrt(2) alpha) / 2."""
    with mp.workdps(DPS):
        return mp.erfc(mp.sqrt(2 * mp.mpf(alpha2))) / 2


def oracle_ml(alpha2, beta2, phi, terms=80):
    """High-precision joint-likelihood comparison over a finite outcome box."""
    with mp.workdps(DPS):
        a, b = mp.sqrt(mp.mpf(alpha2)), mp.sqrt(mp.mpf(beta2))
        r, t = mp.cos(mp.mpf(phi)), mp.sin(mp.mpf(phi))
        means = [(r * b + t * a) ** 2, (r * b - t * a) ** 2, (t * b - r * a) ** 2, (t * b + r * a) ** 2]
        pmfs = [[_pmf(mean, n) for n in range(terms)] for mean in means]
        err = mp.mpf(0)
        for n in range(terms):
            for m in range(terms):
                plus = pmfs[0][n] * pmfs[2][m]
                minus = pmfs[1][n] * pmfs[3][m]
                if plus > minus:
                    err += minus
                elif minus > plus:
                    err += plus
                else:
                    err += (plus + minus) / 2
        return err / 2


def oracle_optimal(alpha2, beta2):
    """Helstrom bound of the phase-averaged states, summed over total photons.

    Sector N has Poisson weight w_N at mean alpha^2 + beta^2 and holds two
    pure states of squared overlap x_N = r^(2N), r = (beta^2 - alpha^2) /
    (alpha^2 + beta^2); its error is w_N (1 - sqrt(1 - x_N)) / 2. The sum
    runs far past the Poisson bulk, so no truncation is left at 40 digits.
    """
    with mp.workdps(DPS):
        a2, b2 = mp.mpf(alpha2), mp.mpf(beta2)
        total = a2 + b2
        r2 = ((b2 - a2) / total) ** 2
        n_top = int(total + 60 * mp.sqrt(total + 1) + 100)
        return mp.fsum(
            _pmf(total, n) * (1 - mp.sqrt(1 - r2**n)) for n in range(n_top)
        ) / 2


def oracle_small_alpha_series(alpha2, beta2):
    """Weak-signal series: the sum over n of the eigenvalue magnitudes

        lambda_n = 2 alpha beta Poi(n; beta^2) / sqrt(n + 1)
                 = 2 alpha beta^(2n+1) e^(-beta^2) / sqrt(n! (n+1)!).

    The Poisson weights follow their ratio recurrence outwards from the mode
    until they fall 60 orders of magnitude below it, which leaves no
    truncation at 40 digits.
    """
    with mp.workdps(DPS):
        a2, b2 = mp.mpf(alpha2), mp.mpf(beta2)
        mode = int(mp.floor(b2))
        peak = _pmf(b2, mode)
        total = peak / mp.sqrt(mode + 1)
        w, n = peak, mode
        while n > 0 and w > peak * mp.mpf("1e-60"):
            w = w * n / b2
            n -= 1
            total += w / mp.sqrt(n + 1)
        w, n = peak, mode
        while w > peak * mp.mpf("1e-60"):
            n += 1
            w = w * b2 / n
            total += w / mp.sqrt(n + 1)
        return 2 * mp.sqrt(a2 * b2) * total
