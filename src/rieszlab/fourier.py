"""Sparse trigonometric polynomials and grid samples on the d-torus.

Frequency-space objects are sparse integer-indexed coefficient tables
(:class:`TrigPoly`); sample-space objects live on uniform N^d grids
(:class:`GridFunction`).  Grid nodes sit at theta_k = 2*pi*(k + offset)/N
per axis.  The default half-cell offset keeps symmetric lattice zeros of
real polynomials off the quadrature nodes, which matters for
geometric-mean quadrature.

The offset enters only where coefficients meet samples.  The samples of
c_alpha e^{i alpha.theta} on the shifted grid are those of
c_alpha e^{2 pi i offset sum(alpha)/N} e^{i alpha.theta} on the unshifted
one, so :func:`sample` folds that phase (:func:`offset_phase`) into the
sparse coefficients and :func:`coefficients` removes it from the bins it
reads.  :func:`sample` transforms only the slabs its coefficients occupy
and equals the dense inverse FFT bit for bit.  :func:`grid_spectrum` and
:func:`grid_from_spectrum` are plain normalized FFTs of the samples as
they lie: a Fourier multiplier such as the Riesz projection commutes
with the grid shift, so it needs no phase.

Every FFT in the package goes through this module.  Inner products are
normalized against Lebesgue measure of total mass one, i.e. plain means
over grid nodes, and numpy's pairwise summation keeps reductions
reproducible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

MultiIndex = tuple[int, ...]

GRID_MAGIC = b"RLGF"
_HEADER = struct.Struct("<4sIII")  # magic, dim, n_per_axis, offset in half-cells


def _as_multi_index(alpha: Iterable[int], dim: int) -> MultiIndex:
    idx = tuple(map(int, alpha))
    if len(idx) != dim:
        raise ValueError(f"index {idx} has length {len(idx)}, expected {dim}")
    return idx


def _json_int(x, what: str) -> int:
    """x when it is a JSON integer (a bool or a float is not), else ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"TrigPoly {what} must be an integer, not {x!r}")
    return x


def _json_float(x, what: str) -> float:
    """x as a float when it is a JSON number (a bool is not), else ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"TrigPoly {what} must be a number, not {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"TrigPoly {what} overflows float64") from None


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial sum_alpha c_alpha e^{i alpha . theta} on T^dim.

    Canonical sparse form: exactly-zero coefficients are never stored.
    Instances are treated as immutable values.
    """

    dim: int
    coeffs: dict[MultiIndex, complex]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        cleaned = {}
        for alpha, c in self.coeffs.items():
            idx = _as_multi_index(alpha, self.dim)
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient {c!r} at {idx}")
            if c != 0:
                cleaned[idx] = c
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, alpha: Iterable[int]) -> "TrigPoly":
        idx = tuple(map(int, alpha))
        return cls(dim=len(idx), coeffs={idx: 1.0})

    # -- basic queries -------------------------------------------------

    def coeff(self, alpha: Iterable[int]) -> complex:
        return self.coeffs.get(tuple(map(int, alpha)), 0.0 + 0.0j)

    def bandwidth(self) -> int:
        """Largest |alpha_i| over the support (0 for a constant)."""
        if not self.coeffs:
            return 0
        return max(max(abs(a) for a in alpha) for alpha in self.coeffs)

    def l2_norm(self) -> float:
        """Parseval norm sqrt(sum |c_alpha|^2), free of overflow and underflow."""
        return math.hypot(*map(abs, self.coeffs.values()))

    def is_analytic(self) -> bool:
        return all(min(alpha) >= 0 for alpha in self.coeffs) if self.coeffs else True

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return TrigPoly(self.dim, out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "TrigPoly":
        return TrigPoly(self.dim, {a: v * c for a, v in self.coeffs.items()})

    def __mul__(self, other: "TrigPoly | complex | float") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return self.scale(complex(other))
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict[MultiIndex, complex] = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a1, a2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return TrigPoly(self.dim, out)

    __rmul__ = __mul__

    def conjugate(self) -> "TrigPoly":
        """Complex conjugate: coefficients conjugate, frequencies negate."""
        return TrigPoly(
            self.dim,
            {tuple(-a for a in alpha): c.conjugate() for alpha, c in self.coeffs.items()},
        )

    def prune(self, tol: float) -> "TrigPoly":
        return TrigPoly(self.dim, {a: c for a, c in self.coeffs.items() if abs(c) > tol})

    def evaluate(self, theta: Iterable[float]) -> complex:
        th = np.asarray(tuple(theta), dtype=float)
        if th.shape != (self.dim,):
            raise ValueError("theta must have one angle per axis")
        val = 0.0 + 0.0j
        for alpha, c in self.coeffs.items():
            val += c * np.exp(1j * float(np.dot(alpha, th)))
        return complex(val)

    def distance(self, other: "TrigPoly") -> float:
        return (self - other).l2_norm()

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [
            {"alpha": list(alpha), "re": c.real, "im": c.imag}
            for alpha, c in sorted(self.coeffs.items())
        ]
        return {"dim": self.dim, "terms": terms}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "TrigPoly":
        if not isinstance(doc, Mapping):
            raise ValueError("a TrigPoly document must be a JSON object")
        dim = _json_int(doc["dim"], "dim")
        terms = doc["terms"]
        if not isinstance(terms, list) or not all(isinstance(t, Mapping) for t in terms):
            raise ValueError("TrigPoly terms must be a list of JSON objects")
        coeffs: dict[MultiIndex, complex] = {}
        for term in terms:
            if not isinstance(term["alpha"], list):
                raise ValueError(f"TrigPoly alpha must be a list of integers, not {term['alpha']!r}")
            alpha = _as_multi_index([_json_int(a, "alpha entry") for a in term["alpha"]], dim)
            c = complex(_json_float(term["re"], "re"), _json_float(term["im"], "im"))
            coeffs[alpha] = coeffs.get(alpha, 0.0) + c
        return cls(dim=dim, coeffs=coeffs)


@dataclass
class GridFunction:
    """Samples of a function on the uniform grid theta_k = 2 pi (k+offset)/N.

    ``samples`` is a complex array of shape (N,)*dim in C (row-major)
    order; ``dim`` and ``n_per_axis`` are read off its shape.
    ``aliasing_bound`` is populated by grid-space projections: it
    is the L^2 mass discarded from frequency bins that a length-N grid
    cannot label unambiguously (any axis index at -N/2).
    """

    samples: np.ndarray
    offset: float = 0.5
    aliasing_bound: float | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim < 1:
            raise ValueError("dim must be >= 1")
        if arr.shape != arr.shape[:1] * arr.ndim:
            raise ValueError(f"samples shape {arr.shape} is not (n_per_axis,)*dim")
        if arr.shape[0] < 2 or arr.shape[0] % 2:
            raise ValueError("n_per_axis must be even and >= 2")
        self.samples = arr

    @property
    def dim(self) -> int:
        return self.samples.ndim

    @property
    def n_per_axis(self) -> int:
        return self.samples.shape[0]

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(samples, self.offset)


def axis_angles(n_per_axis: int, offset: float = 0.5) -> np.ndarray:
    """Grid angles 2 pi (k + offset) / N along one axis."""
    return 2.0 * np.pi * (np.arange(n_per_axis) + offset) / n_per_axis


def grid_from_function(
    fn: Callable[..., np.ndarray], dim: int, n_per_axis: int, offset: float = 0.5
) -> GridFunction:
    """Sample a vectorized callable fn(theta_1, ..., theta_d) on the grid."""
    axes = np.meshgrid(*([axis_angles(n_per_axis, offset)] * dim), indexing="ij")
    vals = np.asarray(fn(*axes), dtype=np.complex128)
    return GridFunction(vals, offset)


# ---------------------------------------------------------------------------
# spectra: plain normalized FFTs, fftfreq-indexed
# ---------------------------------------------------------------------------


def _int_freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def offset_phase(freqs: np.ndarray, n: int, offset: float) -> np.ndarray:
    """e^{2 pi i offset k / N} for each frequency k in ``freqs``: the factor
    by which a grid shifted by ``offset`` cells turns the coefficient of
    e^{ik theta} into its unshifted FFT bin."""
    return np.exp(2j * np.pi * offset * freqs / n)


def grid_spectrum(grid: GridFunction) -> np.ndarray:
    """Normalized FFT of the samples as they lie, indexed fftfreq-style.

    No offset phase is removed: for band-limited input, entry
    [alpha mod N] equals c_alpha * offset_phase(sum(alpha), N, offset)
    for |alpha_i| <= N/2 - 1.  Fourier multipliers act on it directly.
    """
    return np.fft.fftn(grid.samples, norm="forward")


def grid_from_spectrum(spec: np.ndarray, offset: float, aliasing_bound: float | None = None) -> GridFunction:
    """Inverse of :func:`grid_spectrum`; ``spec`` is left unchanged."""
    samples = np.fft.ifftn(np.asarray(spec, dtype=np.complex128), norm="forward")
    return GridFunction(samples, offset, aliasing_bound)


# ---------------------------------------------------------------------------
# sampling and coefficient recovery
# ---------------------------------------------------------------------------


#: Most grid points :func:`sample` builds: 2**26 complex128 samples are 1 GiB.
MAX_GRID_POINTS = 2**26


def sample(poly: TrigPoly, n_per_axis: int, offset: float = 0.5) -> GridFunction:
    """Evaluate a TrigPoly on the N^d grid (exact; refuses to alias).

    Requires even N >= 2 * (bandwidth + 1), see :func:`resolving_grid`,
    so every stored frequency has an unambiguous bin.  Only rows through
    occupied bins are transformed; the rest are exactly zero, so the
    samples equal the dense ``ifftn`` of the scattered spectrum bit for bit.
    """
    n = int(n_per_axis)
    if resolving_grid(poly, n) != n:
        raise ValueError(f"grid n_per_axis={n} must be even and >= 2 * (bandwidth {poly.bandwidth()} + 1)")
    if n**poly.dim > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {n}^{poly.dim} points exceeds the limit of {MAX_GRID_POINTS}")
    alphas = np.array(list(poly.coeffs), dtype=np.int64).reshape(-1, poly.dim)
    values = np.fromiter(poly.coeffs.values(), dtype=np.complex128, count=len(poly.coeffs))
    with np.errstate(over="ignore"):  # the l1 sum bounds every sample
        if not np.isfinite(np.abs(values).sum()):
            raise ValueError("coefficient l1 sum overflows float64, so the samples would too")
    # occupied bins per axis and each coefficient's place (distinct: no aliasing)
    occupied, where = zip(*(np.unique(b, return_inverse=True) for b in (alphas % n).T))
    block = np.zeros([len(o) for o in occupied], dtype=np.complex128)
    block[where] = values * offset_phase(alphas.sum(axis=1), n, offset)
    for axis in reversed(range(poly.dim)):  # ifftn's order, last axis first
        wide = np.zeros(block.shape[:axis] + (n,) + block.shape[axis + 1 :], dtype=np.complex128)
        wide[(slice(None),) * axis + (occupied[axis],)] = block
        block = np.fft.ifft(wide, axis=axis, norm="forward")
    return GridFunction(block, offset)


#: Points per axis for a polynomial sampled with no grid given, by dimension.
DEFAULT_GRID = {1: 256, 2: 128, 3: 64}


def resolving_grid(poly: TrigPoly, n_per_axis: int | None = None) -> int:
    """Smallest even grid size >= n_per_axis that :func:`sample` accepts
    for ``poly``, i.e. at least 2 * (bandwidth + 1).  With no
    ``n_per_axis``, the floor is ``DEFAULT_GRID`` for ``poly.dim``."""
    if n_per_axis is None:
        if poly.dim not in DEFAULT_GRID:
            raise ValueError(f"no default grid for dim={poly.dim}")
        n_per_axis = DEFAULT_GRID[poly.dim]
    n = int(n_per_axis)
    return max(n + n % 2, 2 * (poly.bandwidth() + 1))


def coefficients(grid: GridFunction, cutoff: int) -> TrigPoly:
    """Recover coefficients for all |alpha_i| <= cutoff from grid samples.

    ``cutoff`` must stay below N/2: the -N/2 bin is ambiguous on an even
    grid and is never reported.  For band-limited input within the cutoff
    this inverts :func:`sample` to rounding error; for smooth
    non-polynomial input the result carries the aliased tail.
    """
    n = grid.n_per_axis
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if cutoff >= n // 2:
        raise ValueError(f"cutoff {cutoff} must be < N/2 = {n // 2}")
    alphas = np.indices((2 * cutoff + 1,) * grid.dim).reshape(grid.dim, -1).T - cutoff
    bins = grid_spectrum(grid)[tuple((alphas % n).T)]
    values = bins * offset_phase(-alphas.sum(axis=1), n, grid.offset)
    nz = values != 0
    return TrigPoly(grid.dim, dict(zip(map(tuple, alphas[nz].tolist()), values[nz].tolist())))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _project_grid(grid: GridFunction, keep: Callable[[list[np.ndarray]], np.ndarray]) -> GridFunction:
    n = grid.n_per_axis
    spec = grid_spectrum(grid)  # a multiplier commutes with the grid shift: no phase
    freqs = np.meshgrid(*([_int_freqs(n)] * grid.dim), indexing="ij")
    nyquist = np.zeros(spec.shape, dtype=bool)
    for f in freqs:
        nyquist |= f == -(n // 2)
    dropped = float(np.sqrt(np.sum(np.abs(spec[nyquist]) ** 2)))
    mask = keep(freqs) & ~nyquist
    out = np.where(mask, spec, 0.0)
    return grid_from_spectrum(out, grid.offset, aliasing_bound=dropped)


def riesz_project(x: TrigPoly | GridFunction) -> TrigPoly | GridFunction:
    """Riesz projection: keep coefficients with all frequencies >= 0.

    Exact (coefficient filtering) on TrigPoly input.  Grid input goes
    through the FFT at the grid's own resolution; the mass in ambiguous
    Nyquist bins is dropped and reported via ``aliasing_bound``.
    """
    if isinstance(x, TrigPoly):
        return TrigPoly(x.dim, {a: c for a, c in x.coeffs.items() if min(a) >= 0})
    keep = lambda freqs: np.logical_and.reduce([f >= 0 for f in freqs])
    return _project_grid(x, keep)


def riesz_project_minus(x: TrigPoly | GridFunction) -> TrigPoly | GridFunction:
    """Complementary projection onto strictly negative frequencies (d=1)."""
    if x.dim != 1:
        raise ValueError("riesz_project_minus is defined for dim=1 only")
    if isinstance(x, TrigPoly):
        return TrigPoly(1, {a: c for a, c in x.coeffs.items() if a[0] < 0})
    return _project_grid(x, lambda freqs: freqs[0] < 0)


def partial_project(poly: TrigPoly, axes: Iterable[int]) -> TrigPoly:
    """Project onto nonnegative frequencies along the given axes (1-based).

    Composing over complementary axis sets equals the full projection.
    """
    axes = sorted(set(int(a) for a in axes))
    for a in axes:
        if not 1 <= a <= poly.dim:
            raise ValueError(f"axis {a} out of range for dim={poly.dim}")
    keep = [a - 1 for a in axes]
    return TrigPoly(
        poly.dim,
        {alpha: c for alpha, c in poly.coeffs.items() if all(alpha[k] >= 0 for k in keep)},
    )


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


def grid_inner(f: GridFunction, g: GridFunction) -> complex:
    """Normalized inner product <f, g> = mean(f * conj(g)) over grid nodes."""
    if f.dim != g.dim or f.n_per_axis != g.n_per_axis or f.offset != g.offset:
        raise ValueError("grids are not compatible")
    return complex(np.mean(f.samples * np.conj(g.samples)))


def poly_inner(f: TrigPoly, g: TrigPoly) -> complex:
    """Parseval form of the normalized inner product."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    small, big = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    acc = 0.0 + 0.0j
    for alpha, c in small.coeffs.items():
        other = big.coeffs.get(alpha)
        if other is not None:
            acc += (c * other.conjugate()) if small is f else (other * c.conjugate())
    return complex(acc)


# ---------------------------------------------------------------------------
# binary grid serialization
# ---------------------------------------------------------------------------


def save_grid(grid: GridFunction, path) -> None:
    """Write the 16-byte header (magic, dim, N, offset in half-cells) plus
    little-endian float64 re/im pairs in row-major order."""
    half_cells = round(grid.offset * 2)
    if abs(grid.offset * 2 - half_cells) > 0 or half_cells not in (0, 1):
        raise ValueError("binary format stores offsets of 0 or 1 half-cells only")
    header = _HEADER.pack(GRID_MAGIC, grid.dim, grid.n_per_axis, half_cells)
    data = np.ascontiguousarray(grid.samples, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def load_grid(path) -> GridFunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("truncated grid file")
    magic, dim, n, half_cells = _HEADER.unpack_from(raw)
    if magic != GRID_MAGIC:
        raise ValueError("bad magic; not a grid dump")
    if half_cells not in (0, 1):
        raise ValueError(f"grid offset of {half_cells} half-cells; the format stores 0 or 1 only")
    count = n**dim
    expected = _HEADER.size + 16 * count
    if len(raw) != expected:
        raise ValueError(f"grid file has {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size, count=count)
    if not np.isfinite(flat).all():
        raise ValueError("grid file holds non-finite samples")
    samples = flat.reshape((n,) * dim).astype(np.complex128)
    return GridFunction(samples, half_cells / 2.0)
