"""Wire bindings: HTTP substrate, SOAP-style and RESTful endpoints, WSDL.

One contract, many bindings — the property §V of the paper highlights
(the ASU repository offers services "in multiple formats, including
ASP.Net services, WCF services, RESTful services").  All bindings route
into the same :class:`~repro.core.service.ServiceHost`.
"""

from .http11 import (
    HttpError,
    HttpRequest,
    HttpResponse,
    bodyless_status,
    encode_query,
    parse_query_string,
    parse_request,
    parse_response,
)
from .client import HttpClient
from .httpserver import HttpServer, serve_once
from .conditional import (
    compute_etag,
    conditional,
    etag_matches,
    http_date,
    if_none_match,
    not_modified,
    parse_etag_list,
    parse_http_date,
)
from .statusmap import parse_retry_after, raise_transport_status
from .wsdl import contract_from_xml, contract_to_xml, contract_to_element, contract_from_element
from .soap import SoapClient, SoapEndpoint, build_call, build_fault, build_result, parse_envelope, soap_proxy
from .rest import RestClient, RestEndpoint, RestRouter, coerce_argument, rest_proxy

__all__ = [
    "HttpError", "HttpRequest", "HttpResponse", "parse_request", "parse_response",
    "parse_query_string", "encode_query", "bodyless_status",
    "HttpServer", "HttpClient", "serve_once",
    "conditional", "compute_etag", "etag_matches", "if_none_match",
    "not_modified", "parse_etag_list", "http_date", "parse_http_date",
    "parse_retry_after", "raise_transport_status",
    "contract_to_xml", "contract_from_xml", "contract_to_element", "contract_from_element",
    "SoapEndpoint", "SoapClient", "soap_proxy",
    "build_call", "build_result", "build_fault", "parse_envelope",
    "RestEndpoint", "RestClient", "rest_proxy", "RestRouter", "coerce_argument",
]
