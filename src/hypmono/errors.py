"""Shared exception types.

CapExceededError marks resource-cap refusals (table sizes, enumeration
ranges); the CLI maps it to exit code 3.
"""


class CapExceededError(ValueError):
    """A requested computation exceeds a hard resource cap."""


class DegreeOutOfRangeError(CapExceededError):
    """Field extension degree outside the supported table-size bounds."""


class UnsupportedCharacteristicError(ValueError):
    """Characteristic other than 2 or 3."""
