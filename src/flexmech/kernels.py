"""Kernel core: notch profile integrals and rectangle torsion.

All lengths in mm.  The three notch kernels are

    k1 = int_0^2r  dx / h(x)
    k3 = int_0^2r  dx / h(x)^3
    kt = int_0^2r  dx / I_t(x)

with h(x) the local thickness of a circular notch and I_t the Saint-Venant
torsion constant of the local w-by-h(x) rectangle (long/short side decided
per strip).  The profile is symmetric about x = r, so the bending elastic
center sits at the mid-plane and needs no first-moment kernel.

The integrals use one fixed Gauss-Legendre rule after the neck-clustering
substitution x - r = r sin(psi), sin(psi/2) = c tan(alpha), c = sqrt(t/4r),
which turns the profile into h = t sec^2(alpha) on
alpha in [-atan sqrt(2r/t), +atan sqrt(2r/t)].  Every integrand is then
smooth except the torsion one at h = w, where the rule is split.
notch_kernels takes one notch or (G,) arrays of them and lays every notch
out as two panels of GL_NODES nodes on the half profile, the second of
zero width when the width does not cross the profile, so a batch of G
notches is one set of (G, 2 GL_NODES) array operations; each notch's
kernels come out bit for bit as a one-notch call gives them.  The rule
is relative by construction: the kernels follow their exact scaling laws at
any length scale.  torsion_beta sums the whole Saint-Venant series (a
closed form plus six tanh terms), within 3e-16 of a 40-digit evaluation
for aspect ratios from 1 to 1e6.  Against 30-digit quadrature all three
kernels agree to 1e-14 relative for r/t <= 10 (kt within 8e-16 of it at
r/t from 0.3 to 10, the bundled notch's within 3e-16); the outer profile
crowds toward alpha_max as r/t grows, and the error of k1, and of kt when
w <= t, reaches about 3e-11 at r/t = 30 and 5e-9 at r/t = 100.
"""

import math

import numpy as np

GL_NODES = 32  # Gauss-Legendre nodes per panel
# the Saint-Venant series sum_{n odd} tanh(n pi a / 2) / n^5 is the whole
# sum_{n odd} 1 / n^5 = (31/32) zeta(5), here its nearest float, plus
# sum_{n odd} (tanh(n pi a / 2) - 1) / n^5; at aspect ratios a >= 1 that
# tail term is below 1e-22 from n = 13 on, so n <= 11 sums it exactly
_ODD_ZETA5 = 1.0045237627951396
_BETA_N = np.arange(1.0, 12.0, 2.0)
_BETA_ARG = 0.5 * math.pi * _BETA_N
_BETA_INV_N5 = _BETA_N**-5


def _gauss_legendre(n):
    """Nodes and weights of the n-point rule on [-1, 1] (Golub-Welsch)."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


_GL_X, _GL_W = _gauss_legendre(GL_NODES)


# a vanishing or huge dimension overflows, divides by zero or makes NaN on
# its own notch or beam, which the element checks report as not finite
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def torsion_beta(aspect):
    """Saint-Venant shape coefficient for rectangles of side ratio >= 1.

    beta = (1/3) * (1 - (192/pi^5) (b/a) sum_{n odd} tanh(n pi a / 2b) / n^5)

    with the whole series: its closed-form part (31/32) zeta(5) plus the
    terms n <= 11 where tanh differs from 1 (_ODD_ZETA5).

    Accepts a scalar (returns a float) or an array of aspect ratios.
    """
    a = np.asarray(aspect, dtype=float)
    if (a < 1.0).any():
        raise ValueError(f"aspect ratio must be >= 1 (long/short), got {a.min()}")
    series = _ODD_ZETA5 + (np.tanh(a[..., None] * _BETA_ARG) - 1.0) @ _BETA_INV_N5
    beta = 1.0 / 3.0 - (64.0 / math.pi**5) * series / a
    return float(beta) if beta.ndim == 0 else beta


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def notch_kernels(r, t, w):
    """The three strip-integration kernels (k1, k3, kt) of a notch as a float
    triple, or of G notches from (G,) arrays of r, t and w as a (G, 3) array.

    One code path serves both: every notch gets two GL_NODES panels on the
    half profile, split where h = w (the I_t kink); a notch the width does
    not cross has a zero-width second panel at alpha_max, where the profile
    is thickest, so its nodes add exact zeros.  Each kernel is one dot per
    notch, so a notch gets the same bits in any batch.
    """
    scalar = np.ndim(r) == 0
    r, t, w = np.atleast_1d(np.asarray(r, dtype=float), np.asarray(t, dtype=float),
                            np.asarray(w, dtype=float))
    if (r <= 0.0).any() or (t <= 0.0).any() or (w <= 0.0).any():
        raise ValueError("notch geometry r, t, w must be positive")
    # half profile alpha in [0, alpha_max]; the other half is its mirror image
    top = np.arctan(np.sqrt(2.0 * r / t))
    split = (t < w) & (w < t + 2.0 * r)
    mid = np.where(split, np.arctan(np.sqrt(np.where(split, w / t, 1.0) - 1.0)), top)
    edges = np.stack([np.zeros_like(top), mid, top], axis=1)[:, :, None]     # (G, 3, 1)
    lo = edges[:, :-1]
    half = 0.5 * (edges[:, 1:] - lo)
    alpha = (lo + half * (1.0 + _GL_X)).reshape(len(r), -1)                 # (G, 2 GL_NODES)
    weight = (half * _GL_W).reshape(len(r), -1)

    r, t, w = r[:, None], t[:, None], w[:, None]
    c2 = t / (4.0 * r)
    tan2 = np.tan(alpha) ** 2
    s2 = c2 * tan2  # sin^2(psi/2)
    sec2 = 1.0 + tan2
    h = t * sec2
    # dx = 2 r c cos(psi) sec^2(alpha) / cos(psi/2) dalpha, doubled for both halves
    dx = (4.0 * r * np.sqrt(c2)) * (1.0 - 2.0 * s2) * sec2 / np.sqrt(1.0 - s2) * weight

    long_s = np.maximum(h, w)
    short_s = np.minimum(h, w)
    i_t = torsion_beta(long_s / short_s) * long_s * short_s**3
    integrands = np.stack([1.0 / h, h**-3, 1.0 / i_t], axis=1)               # (G, 3, n)
    # (1, n) @ (n, 1) per notch and kernel: a plain dot, which a (3, n) @ (n,)
    # product would not round alike
    k = (dx[:, None, None, :] @ integrands[..., None])[..., 0, 0]
    return tuple(k[0].tolist()) if scalar else k
