"""Independent reference implementations the tests compare against.

Everything here is deliberately written from first principles (brute force,
different algorithm, different algebra) so that agreement with the package
is evidence rather than tautology.
"""

from .loop_length import loop_length
from .meb_bruteforce import bruteforce_enclosing_ball
from .wilson_roots import wilson_roots

__all__ = ["bruteforce_enclosing_ball", "loop_length", "wilson_roots"]
