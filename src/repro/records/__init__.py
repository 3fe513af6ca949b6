"""Record schemas, columnar stores and dataset I/O."""

from .codes import (
    MATCH_CODES,
    country_code,
    country_name,
    match_code,
    match_type_from_code,
    vertical_code,
    vertical_name,
)
from .columnar import (
    COLUMNAR_FORMAT,
    columns_to_bytes,
    read_columns,
    read_header,
    write_columns,
)
from .impressions import ImpressionBuilder, ImpressionTable
from .io import (
    read_impressions_csv,
    read_records_jsonl,
    write_impressions_csv,
    write_records_jsonl,
)
from .schemas import CustomerRecord, DetectionRecord

__all__ = [
    "MATCH_CODES",
    "vertical_code",
    "vertical_name",
    "country_code",
    "country_name",
    "match_code",
    "match_type_from_code",
    "COLUMNAR_FORMAT",
    "columns_to_bytes",
    "read_columns",
    "read_header",
    "write_columns",
    "ImpressionBuilder",
    "ImpressionTable",
    "CustomerRecord",
    "DetectionRecord",
    "write_impressions_csv",
    "read_impressions_csv",
    "write_records_jsonl",
    "read_records_jsonl",
]
