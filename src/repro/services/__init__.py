"""The ASU WSRepository service catalogue (§V of the paper): encryption,
access control, guessing game, random string, dynamic image, image
verifier, caching, shopping cart, message buffer, credit score, and
mortgage services — each publishable over every binding.  The catalogue
also offers *monitoring as a service*: :class:`MonitorService` federates
other nodes' ``/metrics`` behind a discoverable contract — *tracing as a
service*: :class:`TraceStoreService` assembles every node's exported
spans into fleet-wide traces (:mod:`.tracestore`) — and *caching as a
service*: :class:`CacheService` over a :class:`ShardedCache`.  These
three side planes join the broker through the one multi-binding
publisher, :func:`publish_service` (inproc, SOAP and REST under one
registration).
"""

from .basic import (
    AccessControlService,
    EncryptionService,
    GuessingGameService,
    ImageService,
    ImageVerifierService,
    RandomStringService,
)
from .commerce import (
    CachingService,
    CreditScoreService,
    MessageBufferService,
    MortgageService,
    ShoppingCartService,
)
from .cache_service import (
    CacheService,
    ShardedCache,
    cache_metric_families,
    cache_routes,
)
from .catalog import (
    CATALOG_SERVICES,
    build_repository,
    mount_all,
    publish_service,
)
from .data_service import DatabaseService
from .monitor import (
    FleetMonitor,
    MonitorService,
    ScrapeTarget,
    merge_families,
    monitor_routes,
)
from .tracestore import (
    TraceRecord,
    TraceStore,
    TraceStoreService,
    tracestore_routes,
)
from .workflow_service import WorkflowService, make_prequalification_service

__all__ = [
    "EncryptionService", "AccessControlService", "GuessingGameService",
    "RandomStringService", "ImageService", "ImageVerifierService",
    "CachingService", "ShoppingCartService", "MessageBufferService",
    "CreditScoreService", "MortgageService",
    "CATALOG_SERVICES", "build_repository", "mount_all",
    "publish_service",
    "DatabaseService",
    "WorkflowService", "make_prequalification_service",
    "MonitorService", "FleetMonitor", "ScrapeTarget",
    "merge_families", "monitor_routes",
    "TraceStore", "TraceRecord", "TraceStoreService",
    "tracestore_routes",
    "ShardedCache", "CacheService", "cache_metric_families",
    "cache_routes",
]
