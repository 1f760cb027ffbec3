package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// runAlertCmd dispatches the standing-query subcommands:
//
//	burstcli subscribe   -http http://localhost:8427 -events 3,7 -theta 500 [-follow]
//	burstcli subscribe   -addr localhost:8428 -events 3,7 -theta 500
//	burstcli unsubscribe -http http://localhost:8427 -id 2
//	burstcli alerts      -http http://localhost:8427 [-ids 2,5] [-n 10]
//
// Over HTTP a subscription outlives the client: subscribe prints the id,
// alerts tails the SSE stream, unsubscribe removes it. Over the wire a
// subscription is connection-scoped, so subscribe arms the query and
// follows its ALERT frames until the process exits.
func runAlertCmd(cmd string, argv []string) error {
	fs := flag.NewFlagSet("burstcli "+cmd, flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "", "burstd HBP1 address (wire transport)")
		baseURL = fs.String("http", "", "burstd base URL (JSON transport)")
		events  = fs.String("events", "", "comma-separated event ids the standing query watches")
		theta   = fs.Float64("theta", 100, "burstiness threshold θ")
		tau     = fs.Int64("tau", wire.DefaultTau, "burst span τ")
		dedup   = fs.Int64("dedup", 0, "suppress re-fires within this many time units of the last alert")
		webhook = fs.String("webhook", "", "also POST alerts to this URL (HTTP transport only)")
		id      = fs.Uint64("id", 0, "subscription id to remove (unsubscribe)")
		ids     = fs.String("ids", "", "subscription ids to follow, comma-separated (alerts; empty = all)")
		follow  = fs.Bool("follow", false, "after registering over HTTP, tail the subscription's SSE stream")
		count   = fs.Int("n", 0, "exit after this many alerts (0 = run until interrupted)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if (*addr == "") == (*baseURL == "") {
		return fmt.Errorf("%s: pass exactly one of -addr (wire) or -http (JSON)", cmd)
	}
	base := strings.TrimRight(*baseURL, "/")
	switch cmd {
	case "subscribe":
		evs, err := parseEvents(*events)
		if err != nil {
			return err
		}
		if *addr != "" {
			if *webhook != "" {
				return fmt.Errorf("subscribe: -webhook needs the HTTP transport")
			}
			return wireSubscribe(*addr, subscribe.Subscription{
				Events: evs, Theta: *theta, Tau: *tau, Dedup: *dedup,
			}, *count)
		}
		subID, err := httpSubscribe(base, evs, *theta, *tau, *dedup, *webhook)
		if err != nil {
			return err
		}
		fmt.Printf("subscription %d armed\n", subID)
		if *follow {
			return followSSE(base, strconv.FormatUint(subID, 10), *count)
		}
		return nil
	case "unsubscribe":
		if *id == 0 {
			return fmt.Errorf("unsubscribe: pass -id")
		}
		if *addr != "" {
			return wireUnsubscribe(*addr, *id)
		}
		return httpUnsubscribe(base, *id)
	case "alerts":
		if *addr != "" {
			return fmt.Errorf("alerts: wire alerts are connection-scoped; use `burstcli subscribe -addr ...` to arm and follow in one connection")
		}
		return followSSE(base, *ids, *count)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// parseEvents parses a "3,7,12" id list.
func parseEvents(spec string) ([]uint64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("pass -events with at least one event id")
	}
	var evs []uint64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad event id %q", part)
		}
		evs = append(evs, e)
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("pass -events with at least one event id")
	}
	return evs, nil
}

// alertLine renders one delivered alert, folding in the drop gap and the
// degraded-history envelope the same way the query paths do.
func alertLine(a subscribe.Alert) string {
	line := fmt.Sprintf("alert sub=%d event=%d t=%d b≈%.1f (θ=%g τ=%d)",
		a.Sub, a.Event, a.Time, a.Burstiness, a.Theta, a.Tau)
	if a.Gap > 0 {
		line += fmt.Sprintf("  [+%d dropped before this]", a.Gap)
	}
	return line + envelopeNote(a.Envelope)
}

// wireSubscribe arms a connection-scoped standing query and follows its
// ALERT frames; dropping the connection drops the subscription.
func wireSubscribe(addr string, sub subscribe.Subscription, count int) error {
	c, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()
	subID, err := c.Subscribe(sub)
	if err != nil {
		return err
	}
	fmt.Printf("subscription %d armed (connection-scoped; interrupt to drop)\n", subID)
	for n := 0; count == 0 || n < count; n++ {
		a, ok := c.Alerts().Pop(nil)
		if !ok {
			return fmt.Errorf("connection closed")
		}
		fmt.Println(alertLine(a))
	}
	return nil
}

func wireUnsubscribe(addr string, subID uint64) error {
	c, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()
	ok, err := c.Unsubscribe(subID)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no subscription %d on this connection (wire subscriptions are connection-scoped)", subID)
	}
	fmt.Printf("subscription %d removed\n", subID)
	return nil
}

func httpSubscribe(base string, events []uint64, theta float64, tau, dedup int64, webhook string) (uint64, error) {
	body, err := json.Marshal(map[string]any{
		"events": events, "theta": theta, "tau": tau,
		"dedup": dedup, "webhook": webhook,
	})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/v1/subscriptions", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //histburst:allow errdrop -- best-effort error body
		return 0, fmt.Errorf("subscribe: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var reg struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return 0, err
	}
	return reg.ID, nil
}

func httpUnsubscribe(base string, subID uint64) error {
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/subscriptions/%d", base, subID), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		fmt.Printf("subscription %d removed\n", subID)
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("no subscription %d", subID)
	default:
		return fmt.Errorf("unsubscribe: %s", resp.Status)
	}
}

// followSSE tails GET /v1/alerts/stream and prints alerts as they arrive.
// Gap frames — alerts shed while this consumer lagged — are surfaced, not
// swallowed. The stream client carries no timeout: it lives until the
// server closes it, count alerts arrive, or the process is interrupted.
func followSSE(base, ids string, count int) error {
	url := base + "/v1/alerts/stream"
	if ids != "" {
		url += "?ids=" + ids
	}
	resp, err := (&http.Client{}).Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("alerts stream: %s", resp.Status)
	}
	var event string
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "gap" {
				var g struct {
					Dropped uint64 `json:"dropped"`
				}
				if err := json.Unmarshal([]byte(data), &g); err == nil {
					fmt.Printf("gap: %d alerts dropped while this consumer lagged\n", g.Dropped)
				}
				continue
			}
			var a subscribe.Alert
			if err := json.Unmarshal([]byte(data), &a); err != nil || a.Sub == 0 {
				continue
			}
			fmt.Println(alertLine(a))
			if seen++; count > 0 && seen >= count {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return err
	}
	return nil
}
