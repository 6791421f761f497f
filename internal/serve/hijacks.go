package serve

import (
	"net/http"

	"stateowned/internal/hijack"
)

// --- /v1/hijacks -------------------------------------------------------------

// HijacksResponse is the generation's routing-adversary detection
// report: every observed origin change against the registered
// ownership, optionally filtered. Detections is never null; an honest
// generation answers with an empty list.
type HijacksResponse struct {
	Generation int                `json:"generation"`
	Monitors   int                `json:"monitors"`
	Count      int                `json:"count"`
	Detections []hijack.Detection `json:"detections"`
}

// hijacksFor extracts the generation's detection report, materializing
// the canonical 404 for sources that carry none (static index-only
// sources, mirroring graphFor).
func hijacksFor(v *View) (*hijack.Report, Response) {
	if v.Hijacks == nil {
		return nil, ErrorResponse(http.StatusNotFound,
			"hijack detection unavailable: this source serves no routing observations")
	}
	return v.Hijacks, Response{}
}

func (s *Server) handleHijacks(v *View, q *Request) Response {
	rep, errResp := hijacksFor(v)
	if rep == nil {
		return errResp
	}
	if q.bad != nil {
		return *q.bad
	}
	body := HijacksResponse{
		Generation: v.Gen,
		Monitors:   rep.Monitors,
		Detections: []hijack.Detection{},
	}
	for _, d := range rep.Detections {
		if q.ASN != 0 && d.Victim != q.ASN {
			continue
		}
		if q.CC != "" && d.VictimCountry != q.CC {
			continue
		}
		if q.CrossBorder != nil && d.CrossBorder != *q.CrossBorder {
			continue
		}
		body.Detections = append(body.Detections, d)
	}
	body.Count = len(body.Detections)
	return JSONResponse(http.StatusOK, body)
}
