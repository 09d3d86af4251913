"""Index coding toolkit for symmetric neighboring consecutive side information."""

from .codec import build_code, decode, encode
from .snc import SncInstance, analyze

__version__ = "0.1.0"
