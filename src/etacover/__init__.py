"""Exact generalized eta products and certification of the cyclic covering
they generate over the modular curve of prime level.

Re-exports the documented library surface; the rest lives in its module.
"""

from .certify import CertReport, CheckResult, report_from_json, report_to_json
from .eta import EtaProduct, expand_product, generalized_eta, orbit_product
from .exact import PrimeContext, prime_context
from .qseries import QSeries

__version__ = "0.1.0"

__all__ = [
    "CertReport",
    "CheckResult",
    "EtaProduct",
    "PrimeContext",
    "QSeries",
    "expand_product",
    "generalized_eta",
    "orbit_product",
    "prime_context",
    "report_from_json",
    "report_to_json",
]
