"""Ridge regression via the normal equations, with an unpenalized intercept."""

import numpy as np

from .base import (
    MeanRegressor,
    check_count,
    check_real,
    check_response_size,
    read_rows,
    training_rows,
)

__all__ = ["RidgeRegressor", "cross_validate_l2", "DEFAULT_L2_GRID"]

# Log-spaced penalty grid for cross-validated tuning.
DEFAULT_L2_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


class RidgeRegressor(MeanRegressor):
    """Closed-form linear regression with an L2 penalty on the slopes.

    Features and response are centered before solving, so the intercept is
    never penalized: as l2_weight grows the slopes shrink to zero and the
    prediction tends to the training mean of y.

    Parameters
    ----------
    l2_weight : float
        L2 penalty weight, >= 0; 0 gives ordinary least squares.
    """

    def __init__(self, l2_weight: float = 0.0):
        self.l2_weight = check_real("l2_weight", l2_weight)

    def fit(self, X, y) -> "RidgeRegressor":
        X, y = training_rows(X, y)
        check_response_size(y, 1023, "fit a ridge regression on")  # y.mean() sums them
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        lam = self.l2_weight
        gram = Xc.T @ Xc + lam * np.eye(X.shape[1])
        try:
            # Cholesky fails exactly when the penalized Gram matrix is not
            # positive definite, i.e. collinear features with lam == 0.
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError(
                "singular normal equations; use l2_weight > 0"
            ) from None
        # the bound on y leaves X's scale free, so X.T @ y can still overflow:
        # such a fit is refused here rather than read as NaN
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = Xc.T @ yc
            coef = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
            intercept = float(y_mean - x_mean @ coef)
        if not (np.all(np.isfinite(coef)) and np.isfinite(intercept)):
            raise ValueError(
                "features and responses too large to fit a ridge regression on: "
                "the normal equations overflow a float"
            )
        self.coef_ = coef
        self.intercept_ = intercept
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = read_rows(self, X)
        return (X * self.coef_).sum(axis=1) + self.intercept_


def cross_validate_l2(
    X,
    y,
    grid=DEFAULT_L2_GRID,
    n_folds: int = 5,
    rng: np.random.Generator | None = None,
) -> float:
    """Pick the L2 weight with the lowest k-fold validation MSE.

    Folds are a seeded shuffle of the rows; ties go to the smaller penalty.
    """
    check_count("n_folds", n_folds, minimum=2)
    X, y = training_rows(X, y)
    n = X.shape[0]
    if n < n_folds:
        raise ValueError(f"need at least {n_folds} rows for {n_folds}-fold CV")
    if rng is None:
        rng = np.random.default_rng(0)
    order = rng.permutation(n)
    folds = np.array_split(order, n_folds)
    grid = sorted(float(g) for g in grid)

    mse = np.zeros(len(grid))
    for val_idx in folds:
        train_mask = np.ones(n, dtype=bool)
        train_mask[val_idx] = False
        for j, lam in enumerate(grid):
            model = RidgeRegressor(lam).fit(X[train_mask], y[train_mask])
            err = y[val_idx] - model.predict(X[val_idx])
            mse[j] += float(err @ err)
    return grid[int(np.argmin(mse))]
