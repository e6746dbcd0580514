"""Independent reference implementations used only by the tests.

Everything here is deliberately written along a different route than the
library: quadrature instead of closed-form special functions, plain Python
accumulation instead of vectorized numpy, exhaustive search instead of
gradient descent, a backtracking descent instead of the exact line search,
polynomial arithmetic with ``np.roots`` instead of the closed-form cubic,
``csv.reader`` loops instead of one ``np.loadtxt`` call, ``float()`` per
token instead of the decimal kernel, and one row at a time instead of the
one-pass normality kernel. Slow is fine; these exist to certify the fast
paths.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

from pufstat.covfit import ARMIJO_C, BACKTRACK, CovFitResult, FitOptions
from pufstat.errors import (ConfigurationError, NumericError, ParseError, StructuralError,
                             ValidationError)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _integrate_density(lo: float, hi: float) -> float:
    """Integral of the standard normal density over [lo, hi] via panel
    Gauss-Legendre quadrature (panels of width <= 2 keep it rounding-limited)."""
    total = 0.0
    edges = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / 2.0)) + 1))
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        t = mid + half * _GL_NODES
        total += half * float(np.sum(_GL_WEIGHTS * np.exp(-0.5 * t * t)))
    return total / math.sqrt(2.0 * math.pi)


def phi_quadrature(x: float) -> float:
    """Standard normal CDF by quadrature alone."""
    if x >= 0.0:
        return 0.5 + _integrate_density(0.0, x)
    # Lower tail via the mirrored upper-tail integral: no cancellation.
    return _integrate_density(-x, -x + 40.0)


def log_phi_quadrature(x: float) -> float:
    if x >= 0.0:
        return math.log(0.5 + _integrate_density(0.0, x))
    return math.log(_integrate_density(-x, -x + 40.0))


@functools.cache
def normal_tail_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fixed grid over [-38.5, 9] (step 0.01) with Phi and log Phi on it,
    each from 50-digit mpmath rounded once to a double."""
    import mpmath

    xs = np.linspace(-38.5, 9.0, 4751)
    with mpmath.workdps(50):
        phi = [mpmath.ncdf(mpmath.mpf(float(x))) for x in xs]
        log_phi = [float(mpmath.log(p)) for p in phi]
    return xs, np.array([float(p) for p in phi]), np.array(log_phi)


def relative_error(got, want) -> np.ndarray:
    """|got - want| / |want|, elementwise."""
    want = np.asarray(want, dtype=np.float64)
    return np.abs(np.asarray(got, dtype=np.float64) - want) / np.abs(want)


def ad_statistic_reference(sample, min_n: int = 8) -> float:
    """Raw Anderson-Darling statistic, direct per-term evaluation."""
    xs = [float(v) for v in sample]
    n = len(xs)
    if n < min_n:
        raise ValueError(f"need at least {min_n} observations")
    mean = math.fsum(xs) / n
    var = math.fsum((v - mean) ** 2 for v in xs) / (n - 1)
    std = math.sqrt(var)
    ys = sorted((v - mean) / std for v in xs)
    terms = []
    for i in range(n):
        weight = (2 * i + 1) / n
        terms.append(
            weight * (log_phi_quadrature(ys[i]) + log_phi_quadrature(-ys[n - 1 - i]))
            + 1.0
        )
    return -math.fsum(terms)


def test_rows_reference(matrix, min_samples: int = 8):
    """``normality.test_rows`` the way it was first written: one row at a
    time, each row's statistic from its own 1-D reductions, and the summary
    by nearest rank. Returns one ``(a2, a2_star, reject_at_1pct)`` tuple per
    row and the ``(quantile_50, quantile_90, quantile_99, max)`` tuple. The
    tails are the library's ``log_ndtr``, called on each row alone, so the
    statistic must come out exactly; the tails' own oracles are
    ``normal_tail_grid`` and the quadrature."""
    from pufstat.normality import log_ndtr

    m = np.asarray(matrix, dtype=np.float64)
    rows = []
    for i in range(m.shape[0]):
        x = m[i]
        n = x.size
        if n < min_samples:
            raise ValueError(f"need at least {min_samples} observations")
        y = np.sort((x - x.mean()) / x.std(ddof=1))
        weights = 2.0 * np.arange(n) + 1.0
        a2 = float(-np.sum(weights * (log_ndtr(y) + log_ndtr(-y)[::-1])) / n - n)
        a2_star = a2 * (1.0 + 4.0 / n + 25.0 / (n * n))
        rows.append((a2, a2_star, a2_star > 1.047))
    ranked = sorted(star for _, star, _ in rows)
    summary = tuple(nearest_rank_reference(ranked, q) for q in (0.50, 0.90, 0.99))
    return rows, summary + (ranked[-1],)


# Not a test case despite the name; keeps pytest from collecting it on import.
test_rows_reference.__test__ = False


def nearest_rank_reference(ranked, q: float) -> float:
    """The ceil(q*n)-th smallest of the ascending list ``ranked`` (1-based)."""
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


def covariance_reference(matrix) -> np.ndarray:
    """Population covariance of rows by an explicit double loop."""
    m = np.asarray(matrix, dtype=np.float64)
    rows, cols = m.shape
    means = [math.fsum(m[k]) / cols for k in range(rows)]
    out = np.empty((rows, rows))
    for k in range(rows):
        for l in range(rows):
            out[k, l] = math.fsum(
                (m[k, j] - means[k]) * (m[l, j] - means[l]) for j in range(cols)
            ) / cols
    return out


def check_covariance_reference(cov) -> np.ndarray:
    """``covfit.check_covariance`` by the full spectrum: finite, symmetric to
    1e-8 of the largest entry, and smallest eigenvalue of the symmetric part
    at least -1e-8 of it."""
    cov = np.asarray(cov, dtype=np.float64)
    if not np.isfinite(cov).all():
        raise NumericError("covariance matrix is not finite")
    scale = float(np.abs(cov).max()) or 1.0
    if float(np.abs(cov - cov.T).max()) > 1e-8 * scale:
        raise ConfigurationError("covariance matrix is not symmetric")
    eigmin = float(np.linalg.eigvalsh((cov + cov.T) / 2.0).min())
    if eigmin < -1e-8 * scale:
        raise ConfigurationError(
            f"covariance matrix is not positive semidefinite (eigmin {eigmin:g})"
        )
    return cov


def expanded_covariance_reference(extended, n_train: int) -> np.ndarray:
    """Covariance over n_train + 1 device columns computed with the row
    means of the first n_train columns (the negligible-mean-shift reading)."""
    m = np.asarray(extended, dtype=np.float64)
    rows, cols = m.shape
    assert cols == n_train + 1
    means = [math.fsum(m[k, :n_train]) / n_train for k in range(rows)]
    out = np.empty((rows, rows))
    for k in range(rows):
        for l in range(rows):
            out[k, l] = math.fsum(
                (m[k, j] - means[k]) * (m[l, j] - means[l]) for j in range(cols)
            ) / cols
    return out


def group_variance_reference(dev, a: int, b: int) -> float:
    """Mean over rows of the within-window sample variance, double loop."""
    d = np.asarray(dev, dtype=np.float64)
    n = b - a + 1
    per_row = []
    for i in range(d.shape[0]):
        window = [float(v) for v in d[i, a : b + 1]]
        mean = math.fsum(window) / n
        per_row.append(math.fsum((v - mean) ** 2 for v in window) / (n - 1))
    return math.fsum(per_row) / d.shape[0]


def covfit_objective_reference(cov, d, n_train: int) -> float:
    """Squared Frobenius norm of (d d^T - C) / (n + 1), fully expanded."""
    c = np.asarray(cov, dtype=np.float64)
    dv = np.asarray(d, dtype=np.float64)
    k = dv.size
    total = math.fsum(
        (dv[i] * dv[j] - c[i, j]) ** 2 for i in range(k) for j in range(k)
    )
    return total / (n_train + 1) ** 2


def covfit_grid_search(cov, row_means, fixed_mask, fixed_values, n_train,
                       step: float = 0.01, span_sigmas: float = 3.0):
    """Exhaustive grid minimization over exactly two free coordinates.

    Evaluates the residual matrix (d d^T - C) / (n + 1) explicitly at every
    grid point; one axis is vectorized to keep the sweep quick."""
    c = np.asarray(cov, dtype=np.float64)
    mu = np.asarray(row_means, dtype=np.float64)
    mask = np.asarray(fixed_mask, dtype=bool)
    free_idx = np.flatnonzero(~mask)
    assert free_idx.size == 2, "grid oracle handles exactly two free coordinates"
    base = np.zeros(mu.size)
    base[mask] = np.asarray(fixed_values, dtype=np.float64) - mu[mask]
    sig0 = math.sqrt(c[free_idx[0], free_idx[0]])
    sig1 = math.sqrt(c[free_idx[1], free_idx[1]])
    grid0 = np.arange(-span_sigmas * sig0, span_sigmas * sig0 + step / 2, step)
    grid1 = np.arange(-span_sigmas * sig1, span_sigmas * sig1 + step / 2, step)
    best = (math.inf, None)
    scale = (n_train + 1) ** 2
    for v0 in grid0:
        d_block = np.tile(base, (grid1.size, 1))
        d_block[:, free_idx[0]] = v0
        d_block[:, free_idx[1]] = grid1
        residuals = np.einsum("gi,gj->gij", d_block, d_block) - c[None, :, :]
        values = np.einsum("gij,gij->g", residuals, residuals) / scale
        arg = int(np.argmin(values))
        if values[arg] < best[0]:
            best = (float(values[arg]), (float(v0), float(grid1[arg])))
    return best


def ray_step_reference(cov, d, g) -> float:
    """The step ``a > 0`` that minimizes ``F(d - a g)``, with
    ``F(x) = |x|^4 - 2 x.Cx + ||C||_F^2``: the quartic along the ray is built
    by polynomial arithmetic in the distance ``t = a |g|`` along the unit
    direction ``u = g / |g|``, so its leading coefficient is 1 however small
    ``g`` is. The roots of its derivative are found by ``np.roots``, and the
    positive ones are ranked by ``F`` evaluated in full."""
    c = np.asarray(cov, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    u = np.asarray(g, dtype=np.float64) / norm
    poly = np.polynomial.Polynomial
    sq = poly([np.dot(d, d), -2.0 * np.dot(d, u), 1.0])
    quad = poly([np.dot(d, c @ d), -(np.dot(d, c @ u) + np.dot(u, c @ d)), np.dot(u, c @ u)])
    slope = (sq * sq - 2.0 * quad).deriv()
    # Real parts of complex roots add candidates, none below the true minimum.
    steps = [float(r.real) / norm for r in np.roots(slope.coef[::-1]) if r.real > 0.0]
    return min(steps, key=lambda a: covfit_objective_reference(c, d - a * g, 0))


def _bits(values) -> np.ndarray:
    """The response rule written out here, not taken from the library: 1
    where a value is strictly positive."""
    return np.asarray([1 if x > 0.0 else 0 for x in np.ravel(values).tolist()], dtype=np.uint8)


def fit_reference(problem, fixed_mask, fixed_values, options=None):
    """The covariance-fit descent with a plain backtracking Armijo search:
    every iteration tries steps from four times the last accepted one,
    halving until one passes, and a start whose projected gradient is all
    zeros takes no step. ``pufstat.covfit.fit`` must do no worse."""
    options = options or FitOptions()
    k = problem.num_pairs
    mask = np.asarray(fixed_mask, dtype=bool)
    values = np.asarray(fixed_values, dtype=np.float64)
    free = ~mask
    scale = 1.0 / (problem.n_train + 1.0) ** 2

    d = np.zeros(k)
    d[mask] = values - problem.row_means[mask]
    if options.start_free is not None:
        start = np.asarray(options.start_free, dtype=np.float64).ravel()
        if start.size != int(free.sum()):
            raise ConfigurationError(
                f"start_free has {start.size} entries for {int(free.sum())} free coordinates"
            )
        d[free] = start

    cov = problem.cov
    cov_fro2 = float(np.sum(cov * cov))

    def f_and_cd(d):
        cd = cov @ d
        dd = float(np.dot(d, d))
        value = dd * dd - 2.0 * float(np.dot(d, cd)) + cov_fro2
        return value, cd, dd

    f_raw, cd, dd = f_and_cd(d)
    if not np.isfinite(f_raw):
        raise NumericError("objective is not finite at the starting point")
    start_objective = f_raw * scale

    iterations = 0
    alpha = 1.0
    stop_reason = f"max_iter reached ({options.max_iter})"
    for _ in range(options.max_iter):
        grad = 4.0 * (dd * d - cd)
        grad[mask] = 0.0
        if iterations == 0 and not grad.any():
            stop_reason = "stationary start"
            break
        gnorm2 = float(np.dot(grad, grad))
        if np.sqrt(gnorm2) * scale < options.grad_tol:
            stop_reason = "gradient tolerance"
            break
        alpha = min(alpha * 4.0, 1e12)
        accepted = False
        while alpha > 1e-20:
            d_new = d - alpha * grad
            f_new, cd_new, dd_new = f_and_cd(d_new)
            if np.isfinite(f_new) and f_new <= f_raw - ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= BACKTRACK
        if not accepted:
            stop_reason = "line search stalled"
            break
        decrease = (f_raw - f_new) * scale
        d, f_raw, cd, dd = d_new, f_new, cd_new, dd_new
        iterations += 1
        if decrease < options.objective_tol * max(1.0, abs(f_raw) * scale):
            stop_reason = "objective tolerance"
            break

    b_hat = problem.row_means + d
    # Pin the fixed positions exactly; mu + (v - mu) can differ in the last ulp.
    b_hat[mask] = values
    bits_hat = _bits(b_hat)

    delta_correct = None
    if problem.truth is not None:
        b_start = problem.row_means.copy()
        b_start[mask] = values
        truth_bits = _bits(problem.truth)
        correct_start = int((_bits(b_start) == truth_bits).sum())
        correct_end = int((bits_hat == truth_bits).sum())
        delta_correct = correct_end - correct_start

    return CovFitResult(
        b_hat=b_hat,
        objective=float(f_raw * scale),
        start_objective=float(start_objective),
        iterations=iterations,
        bits_hat=bits_hat,
        delta_correct=delta_correct,
        stop_reason=stop_reason,
    )


def pearson_reference(x, y) -> float:
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    dx = math.fsum((a - mx) ** 2 for a in xs)
    dy = math.fsum((b - my) ** 2 for b in ys)
    return num / math.sqrt(dx * dy)


def fmt_num_reference(value) -> str:
    """One table cell the way artifacts were first written, value by value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def format_rows_reference(columns, sep: str, newline: str = "\n") -> str:
    """A table row by row from the Python scalars of each column's
    ``tolist()``: text cells as they are, every other cell through
    ``fmt_num_reference``, each row ended by ``newline``."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "".join(
        sep.join(v if isinstance(v, str) else fmt_num_reference(v) for v in row) + newline
        for row in rows
    )


def write_dataset_reference(values, out_dir, kind: str = "files", rows: str = "ros",
                            delimiter: str | None = None, serials=None) -> None:
    """Write a (devices, ros, samples) array, and optionally its serials, the
    way ``write_dataset`` lays them out, one value at a time; CSV files go
    through ``csv.writer``."""
    values = np.asarray(values, dtype=np.float64)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    num_devices, num_ros, num_samples = values.shape
    if kind == "files":
        sep = delimiter if delimiter is not None else " "
        width = max(4, len(str(max(num_devices - 1, 0))))
        for j in range(num_devices):
            table = values[j].T if rows == "samples" else values[j]
            lines = [sep.join(format(float(v), ".17g") for v in row) for row in table]
            path = out_dir / f"device_{j:0{width}d}.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        with open(out_dir / "readings.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("device", "ro", "sample", "freq_mhz"))
            for j in range(num_devices):
                for i in range(num_ros):
                    for t in range(num_samples):
                        writer.writerow([j, i, t, format(float(values[j, i, t]), ".17g")])
    if serials is not None:
        with open(out_dir / "serials.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("device", "serial"))
            for j, serial in enumerate(serials):
                writer.writerow((j, int(serial)))


def decimal_table_reference(text: str, sep: str | None = None) -> np.ndarray:
    """A text table token by token: ``str.split`` on each line, then
    CPython's correctly rounded ``float()`` per token, no numpy parsing."""
    return np.array([[float(token) for token in line.split(sep)]
                     for line in text.splitlines()], dtype=np.float64)


def _word_table_reference(rows) -> np.ndarray:
    """Byte strings of 24 bytes as three little-endian uint64 words each,
    word-major."""
    return np.frombuffer(b"".join(rows), "<u8").reshape(-1, 3).T.copy()


def codec_tables_reference() -> dict[str, np.ndarray]:
    """The lookup tables of ``decimals`` and ``output``, by module and
    name, built byte string by byte string in Python from what each byte
    means, not by broadcasting."""
    pad, frame = 0xFF, 24

    def frame_masks(keep):
        return _word_table_reference(bytes(pad if keep(n, d, b) else 0 for b in range(frame))
                                     for n in range(frame) for d in range(-1, frame))

    return {
        "decimals._LOW": frame_masks(lambda n, d, b: n <= b < d),
        "decimals._HIGH": frame_masks(lambda n, d, b: b >= n and b > d),
        "output._DIGITS4": np.frombuffer("".join(f"{i:04d}" for i in range(10_000))
                                         .encode("ascii"), "<u4"),
        "output._TAIL_LOW": _word_table_reference(
            [bytes(pad * (b < p) for b in range(24)) for p in range(17)]),
        "output._TAIL_HIGH": _word_table_reference(
            [bytes(pad * (b > p) for b in range(24)) for p in range(17)]),
        "output._TAIL_FILL": _word_table_reference([
            bytes(pad if b - (b > p) >= t or b == p >= t else ord(".") if b == p else 0
                  for b in range(24))
            for p in range(17) for t in range(17)]),
    }


def load_csv_reference(path) -> np.ndarray:
    """A consolidated ``device,ro,sample,freq_mhz`` CSV read record by record
    through ``csv.reader`` and ``int()``/``float()``, then placed into a NaN
    cube one cell at a time: the duplicate check stops at the first repeat in
    file order and the missing check names the first hole in C order."""
    path = Path(path)
    header = ("device", "ro", "sample", "freq_mhz")
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            row = next(reader)
        except StopIteration:
            raise StructuralError(f"{path.name} is empty") from None
        if tuple(h.strip() for h in row) != header:
            raise StructuralError(f"{path.name} header is {row!r}, expected {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise StructuralError(f"{path.name} line {lineno} has {len(row)} fields, expected 4")
            try:
                records.append((int(row[0]), int(row[1]), int(row[2]), float(row[3])))
            except ValueError:
                raise ParseError(f"could not parse {path.name} line {lineno}: {','.join(row)!r}") from None
    if not records:
        raise StructuralError(f"{path.name} contains a header but no readings")
    idx = np.asarray([(j, i, t) for j, i, t, _ in records], dtype=np.int64)
    if idx.min() < 0:
        raise ValidationError(f"negative index in {path.name}")
    nj, ni, nt = (int(m) + 1 for m in idx.max(axis=0))
    values = np.full((nj, ni, nt), np.nan)
    seen = np.zeros((nj, ni, nt), dtype=bool)
    for j, i, t, freq in records:
        if seen[j, i, t]:
            raise StructuralError(
                f"duplicate reading for device {j}, ro {i}, sample {t} in {path.name}"
            )
        seen[j, i, t] = True
        values[j, i, t] = freq
    if not seen.all():
        j, i, t = map(int, np.argwhere(~seen)[0])
        raise StructuralError(
            f"{path.name} is missing device {j}, ro {i}, sample {t} "
            f"(expected a dense {nj}x{ni}x{nt} cube)"
        )
    return values


def load_metadata_reference(path, num_devices: int | None = None) -> np.ndarray:
    """The serials of a ``device,serial`` CSV, read line by line through
    ``csv.reader`` into a dict keyed by device."""
    path = Path(path)
    pairs = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("device", "serial"):
            raise StructuralError(f"{path.name} header is {header!r}, expected device,serial")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise StructuralError(f"{path.name} line {lineno} has {len(row)} fields, expected 2")
            try:
                device, serial = int(row[0]), int(row[1])
            except ValueError:
                raise ParseError(f"could not parse {path.name} line {lineno}: {','.join(row)!r}") from None
            if device in pairs:
                raise StructuralError(f"duplicate device {device} in {path.name}")
            pairs[device] = serial
    expected = num_devices if num_devices is not None else len(pairs)
    missing = sorted(set(range(expected)) - set(pairs))
    extra = sorted(set(pairs) - set(range(expected)))
    if missing or extra:
        raise StructuralError(
            f"{path.name} must cover devices 0..{expected - 1} exactly "
            f"(missing {missing}, unexpected {extra})"
        )
    return np.asarray([pairs[j] for j in range(expected)], dtype=np.int64)


def _read_json_summary(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("manifest_hash", None)
    return data


def _read_text_table(path: Path) -> list[dict]:
    """The rows of a CSV artifact, header-keyed, its ``#`` lines skipped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _read_envelope_text(path: Path) -> list[dict]:
    """The rows of ``attack_envelope.dat``, each tagged with the mode of its block."""
    entries = []
    mode = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# mode:"):
            mode = line.split(":", 1)[1].strip()
        elif line and not line.startswith("#"):
            count, lo, hi = line.split()
            entries.append({"mode": mode, "fixed_count": int(count),
                            "min_delta": float(lo), "max_delta": float(hi)})
    return entries


def report_payload_reference(out_dir) -> dict:
    """``report.json`` without its ``manifest_hash``, rebuilt from the text
    tables in ``out_dir`` (``attack_envelope.dat``, ``pca_fractions.csv``,
    ``trunc_agreement.csv``, ``serial_corr.csv``) instead of the stages' JSON
    summaries; the normality, entropy and correlate sections are JSON only."""
    out_dir = Path(out_dir)
    payload = {
        "normality": {name: _read_json_summary(out_dir / f"normality_{name}_summary.json")
                      for name in ("freq", "dev", "diff")},
        "entropy": _read_json_summary(out_dir / "entropy.json"),
        "attack": {"envelope": _read_envelope_text(out_dir / "attack_envelope.dat")},
        "pca": {
            "variance_fractions": [
                {"pc": int(row["pc"]), "variance_fraction": float(row["variance_fraction"])}
                for row in _read_text_table(out_dir / "pca_fractions.csv")
            ],
            "truncated_agreement": [
                {"r": int(row["r"]), "agreement": float(row["agreement"])}
                for row in _read_text_table(out_dir / "trunc_agreement.csv")
            ],
        },
    }
    if (out_dir / "serial_corr.csv").is_file():
        payload["similarity"] = {"serial_correlation": [
            {"group_size": int(row["group_size"]), "corr": float(row["corr"])}
            for row in _read_text_table(out_dir / "serial_corr.csv")
        ]}
    if (out_dir / "correlate.json").is_file():
        payload["correlation_profiles"] = _read_json_summary(out_dir / "correlate.json")
    return payload
