"""Exception types shared across the package."""


class TransdimError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDataError(TransdimError):
    """Raised when an estimator receives too little data to be defined, or the
    sampler an observation with nothing to sample (constant or non-finite)."""


class InfeasibleModelError(TransdimError):
    """Raised when a sample cannot be explained by a model (eta = 0 with k > L)."""


class PipelineStageError(TransdimError):
    """Wraps a failure inside one pipeline stage; carries a stage tag and exit code."""

    def __init__(self, stage: str, exit_code: int, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.exit_code = exit_code
        self.cause = cause
