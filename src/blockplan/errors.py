"""Exception types shared across the library."""


class BlockplanError(Exception):
    """Base class for library errors."""


class InvalidActionError(BlockplanError):
    """A control or abstract action references a block that does not exist,
    or violates an action precondition."""


class InvalidGoalError(BlockplanError):
    """Two states that must hold the same blocks do not: their colors differ."""


class CapacityError(BlockplanError):
    """A request exceeds a hard capacity limit (board packing, enumeration cap)."""


class ConfigError(BlockplanError):
    """A configuration value violates an invariant."""
