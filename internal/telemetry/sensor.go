package telemetry

import (
	"context"
	"fmt"
	"net/http"

	"vmp/internal/wire"
)

// sensorRetries bounds how many 429s a Sensor waits out per batch
// before Flush gives up and leaves the batch pending.
const sensorRetries = 100

// Sensor is the client half of the monitoring pipeline: the library a
// publisher integrates with its video player (§3). It batches records
// and posts them as JSON lines to an ingest endpoint — the /v1/views
// that internal/live serves — through the module's one ingest client,
// so a backend under backpressure slows a sensor down instead of
// failing it.
type Sensor struct {
	endpoint string
	client   *wire.Client
	batch    []ViewRecord
	batchMax int
}

// NewSensor returns a sensor posting to endpoint (the backend's
// /v1/views URL). A nil client means http.DefaultClient. batchMax
// bounds records per POST; values < 1 default to 100.
func NewSensor(endpoint string, client *http.Client, batchMax int) *Sensor {
	if batchMax < 1 {
		batchMax = 100
	}
	return &Sensor{endpoint: endpoint, client: wire.NewClient(client, false, false, 0), batchMax: batchMax}
}

// Report queues one view record, flushing if the batch is full.
func (s *Sensor) Report(rec ViewRecord) error {
	s.batch = append(s.batch, rec)
	if len(s.batch) >= s.batchMax {
		return s.Flush()
	}
	return nil
}

// Flush posts all queued records. It is a no-op on an empty batch. A
// 429 is waited out and the same bytes resent; any other failure is
// returned and the batch stays queued for the next Flush.
func (s *Sensor) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	body, err := s.client.Encode(s.batch)
	if err != nil {
		return err
	}
	if _, err := s.client.Send(context.Background(), s.endpoint, body, sensorRetries); err != nil {
		return fmt.Errorf("telemetry: posting views: %w", err)
	}
	s.batch = s.batch[:0]
	return nil
}

// Pending returns the number of queued, unflushed records.
func (s *Sensor) Pending() int { return len(s.batch) }
