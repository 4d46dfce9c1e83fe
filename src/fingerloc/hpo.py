"""Black-box hyperparameter search: grid, random, and Bayesian.

The Bayesian path fits an exact Gaussian-process regression (squared
exponential kernel, Cholesky solve) over observations normalized to the
unit cube and picks the candidate maximizing expected improvement under
the minimization convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError, ExperimentFailedError, GridExhausted, NumericalError
from .models import score
from .nn import OPTIMIZERS, TrainConfig

WARMUP_TRIALS = 3
EI_CANDIDATES = 1024
DEFAULT_LENGTHSCALE = 0.2


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[tuple[str, float, float], ...]  # (name, lower, upper)

    def __post_init__(self):
        if not self.params:
            raise ConfigError("search space has no parameters")
        names = [p[0] for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names")
        for name, lo, hi in self.params:
            if not lo < hi:
                raise ConfigError(f"{name}: lower bound {lo} must be < upper {hi}")

    @property
    def names(self) -> list[str]:
        return [p[0] for p in self.params]

    def normalize(self, assignment: dict[str, float]) -> np.ndarray:
        return np.array([(assignment[n] - lo) / (hi - lo) for n, lo, hi in self.params])

    def denormalize(self, u: np.ndarray) -> dict[str, float]:
        return {n: lo + float(v) * (hi - lo) for (n, lo, hi), v in zip(self.params, u)}


@dataclass
class Trial:
    number: int
    assignment: dict[str, float]
    objective: float | None
    status: str  # "ok" | "diverged"


# ---------------------------------------------------------------------------
# Gaussian-process surrogate

class GpSurrogate:
    """Exact GP regression with a squared-exponential kernel.

    Inputs are expected pre-normalized to the unit cube. The prior mean is
    the observation mean; far from all data the posterior reverts to it
    with variance ``signal_var``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, lengthscale: float = DEFAULT_LENGTHSCALE,
                 signal_var: float | None = None, noise_var: float | None = None):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(x) != len(y) or len(y) == 0:
            raise ValueError("need >= 1 observation with matching x/y lengths")
        if not np.all(np.isfinite(y)):
            raise ValueError("objectives must be finite")
        self.x = x
        self.lengthscale = lengthscale
        if signal_var is None:
            signal_var = float(np.var(y))
            if signal_var <= 0.0:
                signal_var = 1.0
        self.signal_var = signal_var
        self.noise_var = 1e-6 * signal_var if noise_var is None else noise_var
        self.y_mean = float(np.mean(y))
        k = self._kernel(x, x) + self.noise_var * np.eye(len(x))
        self.chol = _cholesky_with_jitter(k)
        self.alpha = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, y - self.y_mean))

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return self.signal_var * np.exp(-d2 / (2.0 * self.lengthscale ** 2))

    def predict(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each query point."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k_star = self._kernel(self.x, queries)  # (n, q)
        mean = self.y_mean + k_star.T @ self.alpha
        w = np.linalg.solve(self.chol, k_star)
        var = self.signal_var - np.sum(w * w, axis=0)
        return mean, np.maximum(var, 0.0)


def _cholesky_with_jitter(k: np.ndarray) -> np.ndarray:
    jitter = 0.0
    base = float(np.mean(np.diag(k)))
    for _ in range(8):
        try:
            return np.linalg.cholesky(k + jitter * np.eye(len(k)))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * base)
    raise NumericalError("kernel matrix not positive definite after jitter escalation")


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization: (best - mu) Phi(z) + sigma phi(z), z = (best - mu)/sigma."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improve = best - mean
    ei = np.where(std > 0.0, 0.0, np.maximum(improve, 0.0))
    pos = std > 0.0
    if np.any(pos):
        z = improve[pos] / std[pos]
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)  # scipy.stats.norm.pdf's own expression
        ei[pos] = np.maximum(improve[pos] * _ndtr(z) + std[pos] * pdf, 0.0)
    return ei


# Cephes' ndtr, erf and erfc, the code scipy.special.ndtr runs, so that Phi is scipy's bit for bit without
# loading scipy: the same coefficients and the same operations in the same order, each rounded once as C
# rounds it. Each polynomial lists its coefficients from the highest power down; a leading 1.0 is the one
# that Cephes' p1evl implies.
_SQRT1_2 = 0.70710678118654752440  # M_SQRT1_2
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc is 0 where -x*x is below -MAXLOG
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2,
      1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3,
      5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, a multiply then an add per step, as Cephes' polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' erf at each ``x`` in [-1, 1]."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes' erfc at each ``x`` >= 1/sqrt(2), or NaN, as ndtr calls it."""
    y = np.zeros_like(x)  # where exp(-x*x) underflows
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    with np.errstate(over="ignore"):  # a square past the float range is -inf, below -MAXLOG
        t = -x * x
    live = ~near & ~(t < -_MAXLOG)  # NaN stays live and gives NaN
    x = x[live]
    # libm's exp, as Cephes takes it: numpy's own exp rounds some of these arguments differently
    e = np.array([math.exp(v) for v in t[live].tolist()])
    small = x < 8.0
    y[live] = e * np.where(small, _polevl(x, _P), _polevl(x, _R)) / np.where(small, _polevl(x, _Q), _polevl(x, _S))
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF at each of ``a``, as ``scipy.special.ndtr`` gives it."""
    x = a * _SQRT1_2
    z = np.abs(x)
    near = z < _SQRT1_2
    y = np.empty_like(x)
    y[near] = 0.5 + 0.5 * _erf(x[near])
    half = 0.5 * _erfc(z[~near])
    y[~near] = np.where(x[~near] > 0.0, 1.0 - half, half)
    return y


# ---------------------------------------------------------------------------
# suggestion strategies

def _linspace_at(lo: float, hi: float, num: int, j: int) -> float:
    """``np.linspace(lo, hi, num)[j]`` bit for bit, for ``num`` >= 2, by linspace's own arithmetic."""
    lo, hi = float(lo), float(hi)
    if j == num - 1:
        return hi
    step = (hi - lo) / (num - 1)
    return float(j) * step + lo if step != 0 else float(j) / (num - 1) * (hi - lo) + lo  # an underflowing step


class Suggester:
    """Produces the next parameter assignment given the trial history."""

    def __init__(self, space: SearchSpace, config: ExperimentConfig):
        self.algorithm = config.algorithm
        self.space = space
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        if self.algorithm == "grid":  # res points per axis make at least max_trials lattice points
            self._res = max(1, math.ceil(config.max_trials ** (1.0 / len(space.params))))

    def _grid_point(self, index: int) -> dict[str, float]:
        """Point ``index`` of itertools.product over the axes, each ``np.linspace(lo, hi, res)``
        (the midpoint when res is 1), computed without building an axis."""
        point = {}
        for name, lo, hi in reversed(self.space.params):  # the last axis varies fastest
            index, j = divmod(index, self._res)
            point[name] = (lo + hi) / 2.0 if self._res == 1 else _linspace_at(lo, hi, self._res, j)
        if index:
            raise GridExhausted("grid lattice exhausted")
        return {name: point[name] for name in self.space.names}

    def _random_assignment(self) -> dict[str, float]:
        return {n: float(self.rng.uniform(lo, hi)) for n, lo, hi in self.space.params}

    def suggest(self, history: Sequence[Trial]) -> dict[str, float]:
        """The next assignment after the trials in ``history``: for a grid, lattice point ``len(history)``."""
        if self.algorithm == "grid":
            return self._grid_point(len(history))
        if self.algorithm == "random":
            return self._random_assignment()
        # bayesian, on the ok trials: a trial has an objective exactly when it is ok
        observed = [t for t in history if t.status == "ok"]
        if len(observed) < WARMUP_TRIALS:
            return self._random_assignment()
        x = np.stack([self.space.normalize(t.assignment) for t in observed])
        y = np.array([t.objective for t in observed])
        candidates = self.rng.uniform(0.0, 1.0, size=(EI_CANDIDATES, len(self.space.params)))
        mean, var = GpSurrogate(x, y).predict(candidates)
        ei = expected_improvement(mean, np.sqrt(var), float(y.min()))
        return self.space.denormalize(candidates[int(np.argmax(ei))])


@dataclass
class ExperimentConfig:
    algorithm: str = "bayesian"
    max_trials: int = 15
    goal: float = 1.2  # objective (grid units) at which the search stops early
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("grid", "random", "bayesian"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.max_trials < 1:
            raise ConfigError("max trials must be >= 1")
        if not self.goal > 0:
            raise ConfigError(f"goal must be positive, got {self.goal}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentResult:
    best: Trial
    trials: list[Trial]


def run_search(objective: Callable[[dict[str, float]], float], space: SearchSpace,
               config: ExperimentConfig) -> ExperimentResult:
    """Sequential suggest -> evaluate loop against an arbitrary objective.

    The objective may raise NumericalError (DivergedError included); those
    trials are recorded with status "diverged" and no objective value.
    """
    suggester = Suggester(space, config)
    trials: list[Trial] = []
    for number in range(1, config.max_trials + 1):
        assignment = suggester.suggest(trials)  # a grid lattice has at least max_trials points
        try:
            value = float(objective(assignment))
            status = "ok" if math.isfinite(value) else "diverged"
        except NumericalError:
            value, status = None, "diverged"
        trials.append(Trial(number=number, assignment=assignment,
                            objective=value if status == "ok" else None, status=status))
        if status == "ok" and value <= config.goal:
            break
    ok = [t for t in trials if t.status == "ok"]
    if not ok:
        raise ExperimentFailedError("all trials diverged")
    best = min(ok, key=lambda t: t.objective)
    return ExperimentResult(best=best, trials=trials)


ADAM_SPACE = SearchSpace((("learning_rate", 0.001, 0.002), ("beta1", 0.88, 0.93)))
# SGD ranges bracket typical tuned values; not prescribed anywhere upstream
SGD_SPACE = SearchSpace((("learning_rate", 0.005, 0.02), ("momentum", 0.85, 0.95)))


def default_space(optimizer: str) -> SearchSpace:
    return ADAM_SPACE if optimizer == "adam" else SGD_SPACE


def check_bindable(space: SearchSpace, base_config: TrainConfig) -> None:
    """Raise ConfigError unless ``base_config``'s optimizer reads each parameter and ``base_config`` takes
    both its bounds."""
    unread = set(space.names) - set(OPTIMIZERS[base_config.optimizer])
    if unread:
        raise ConfigError(f"search space names that the {base_config.optimizer} optimizer does not read: "
                          f"{sorted(unread)}")
    for name, lo, hi in space.params:
        replace(base_config, **{name: lo})  # each field's valid values form an interval
        replace(base_config, **{name: hi})


def training_objective(model_kind: str, dataset: Dataset, space: SearchSpace,
                       base_config: TrainConfig) -> Callable[[dict[str, float]], float]:
    """Objective: ``models.score``'s mean test error in grid units at ``base_config`` with the trial's
    assignment, so ``base_config.seed`` decides every trial's split and initialisation."""
    check_bindable(space, base_config)
    return lambda assignment: score(model_kind, dataset.labelled, dataset.layout,
                                    replace(base_config, **assignment)).mean_error_grid
