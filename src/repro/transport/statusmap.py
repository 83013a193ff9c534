"""Fault ↔ HTTP status: the one rule both HTTP bindings share.

Server side, :func:`fault_status` maps a fault code to its status
(``Client.AccessDenied*`` 403, ``Client.Unknown*`` 404, other ``Client*``
400, ``Server.Unavailable`` 503, ``Server.Timeout`` 408, else 500) and
:func:`fault_response` stamps it, with any ``Retry-After`` hint, on a
rendered fault: the SOAP and REST endpoints and the gateway all answer
faults through it.  Client side, :func:`rebuild_fault` turns a fault
document back into the typed fault, and :func:`raise_transport_status`
covers bare statuses with no fault document (a 408 from the server's
socket timeout, a 503 from an overloaded host).
"""

from __future__ import annotations

from typing import Optional

from ..core.faults import ServiceFault, ServiceUnavailable, TimeoutFault, fault_from_code
from ..xmlkit import Element, from_element, to_element
from .http11 import HttpResponse

__all__ = [
    "fault_status", "fault_response", "append_detail", "rebuild_fault",
    "parse_retry_after", "raise_transport_status",
]


def fault_status(code: str) -> int:
    """The HTTP status a fault with ``code`` is answered with."""
    if code.startswith("Client"):
        if code.startswith("Client.AccessDenied"):
            return 403
        if code.startswith("Client.Unknown"):
            return 404
        return 400
    if code == "Server.Unavailable":
        return 503
    if code == "Server.Timeout":
        return 408
    return 500


def fault_response(fault: ServiceFault, document: str) -> HttpResponse:
    """Answer ``fault``, rendered as ``document``, with its mapped status
    and (when the fault carries one) its ``Retry-After`` hint."""
    response = HttpResponse.xml_response(document, status=fault_status(fault.code))
    retry_after = getattr(fault, "retry_after", None)
    if retry_after is not None:
        response.headers.set("Retry-After", f"{retry_after:g}")
    return response


def append_detail(parent: Element, fault: ServiceFault) -> Element:
    """Append the fault's databound ``<detail><value>`` (if any) to ``parent``."""
    if fault.detail is not None:
        detail = Element("detail")
        detail.append(to_element("value", fault.detail))
        parent.append(detail)
    return parent


def rebuild_fault(
    code: str, message: str, document: Element, response: HttpResponse
) -> ServiceFault:
    """The typed fault a fault ``document`` describes: its ``code`` and
    ``message``, the ``<detail><value>`` under ``document``, and the
    response's ``Retry-After`` hint."""
    detail = None
    detail_el = document.find("detail")
    if detail_el is not None:
        value = detail_el.find("value")
        detail = from_element(value) if value is not None else None
    fault = fault_from_code(code, message, detail)
    retry_after = parse_retry_after(response.headers.get("Retry-After"))
    if retry_after is not None and getattr(fault, "retry_after", None) is None:
        fault.retry_after = retry_after
    return fault


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Parse a ``Retry-After`` header (delta-seconds form) to seconds."""
    if not value:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    return max(seconds, 0.0)


def raise_transport_status(response: HttpResponse) -> None:
    """Raise the typed fault implied by a bare (non-fault-document) status.

    * 408 → :class:`TimeoutFault` (the server's request timeout — e.g. a
      stalled upload killed by the socket timeout)
    * 503 → :class:`ServiceUnavailable` carrying any ``Retry-After`` hint
    * 429 → :class:`ServiceUnavailable` (throttled) with the same hint

    Any other status returns without raising: the caller decides.
    """
    if response.status == 408:
        raise TimeoutFault(
            f"server reported request timeout (HTTP 408): {response.text()[:200]}"
        )
    if response.status in (503, 429):
        raise ServiceUnavailable(
            f"provider refused work (HTTP {response.status}): "
            f"{response.text()[:200]}",
            retry_after=parse_retry_after(response.headers.get("Retry-After")),
        )
