//! A blocking client for the wire protocol.
//!
//! [`Client::request`] is the simple call-and-wait path.  For batching —
//! the whole point of the server's dispatcher — use [`Client::send`] to
//! pipeline many requests and [`Client::recv`] to collect the responses:
//! the server answers one connection's requests strictly in order.
//!
//! Both directions move bursts.  A send appends its frame to an outgoing
//! buffer, and the buffer goes to the socket in one write when the
//! client is about to read from the socket (no whole frame is buffered
//! yet), on [`Client::flush`], once it passes the 64-KiB burst ceiling
//! the server's writers share, and when the client is dropped.  So a
//! pipelined window of requests costs one write, arrives at the server
//! as one burst, and is handed to its shards as one run per shard.  The
//! bytes on the wire are exactly those of one write per frame.
//! Responses are read through a fixed 16-KiB buffer, so a burst the
//! server coalesced into one write is taken in by one read and parsed
//! out of memory, frame by frame, in the server's order.
//!
//! A caller that sends and then waits on something other than this
//! client's own receive path — another connection's event, a timer, a
//! channel — must call [`Client::flush`] first, or its requests may
//! still sit in the buffer.
//!
//! # Delta events
//!
//! Once a `Subscribe` request is answered, the server interleaves
//! unsolicited event frames into the stream.  The client sorts arrivals
//! into an inbox: [`Client::recv`] returns the next *response* (parking
//! any events it reads past), [`Client::next_event`] returns the next
//! *event* (parking responses), and [`Client::recv_message`] returns
//! whatever comes next, preserving the server's interleaving.  A client
//! that never subscribes never sees an event and can ignore all of this.

use crate::proto::{
    decode_event_payload, decode_metrics_response_payload, decode_result_payload,
    decode_sessions_reply_payload, decode_topology_reply_payload, decode_trace_response_payload,
    encode_metrics_request_payload, encode_read_at_payload, encode_request_payload,
    encode_sessions_payload, encode_topology_request_payload, encode_trace_request_payload,
    encode_traced_request_payload, expect_handshake, frame_buffered, is_event_payload, put_frame,
    read_frame, send_handshake, ProtoError, SessionsReply, TopologyReply, READ_BUFFER, WRITE_BURST,
};
use compview_obs::{MetricsSnapshot, TraceCtx, TraceSnapshot};
use compview_session::{DeltaEvent, DispatchError, SessionRequest, SessionResponse};
use std::collections::VecDeque;
use std::io::{self, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One outcome off the wire: the service's per-request answer (itself a
/// `Result`, exactly what `Service::dispatch` produced on the far side).
pub type WireResult = Result<SessionResponse, DispatchError>;

/// One arrival off the wire, in server order.
#[derive(Debug)]
pub enum ServerMessage {
    /// The answer to the connection's oldest unanswered request.
    Reply(WireResult),
    /// An unsolicited delta event, tagged with its owning session.
    Event {
        /// The session the subscription lives in.
        session: String,
        /// The event itself.
        event: DeltaEvent,
    },
}

/// An inbox entry: events are decoded eagerly (to classify them),
/// solicited payloads lazily (the consumer knows whether it expects a
/// result or a metrics snapshot).
enum Arrival {
    Event(String, DeltaEvent),
    Solicited(Vec<u8>),
}

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    /// The socket, read through a fixed buffer (a pipelined burst of
    /// responses costs one `read`) and written through `get_mut`.
    stream: BufReader<TcpStream>,
    /// Framed requests not yet written: the next burst (see the module
    /// docs for when it is written).
    out: Vec<u8>,
    inbox: VecDeque<Arrival>,
    /// Once the transport has failed: why.  Every later send or receive
    /// returns the same [`ProtoError::ConnectionLost`] instead of a
    /// fresh (and possibly different) I/O error from a dead socket —
    /// callers that keep polling after a loss see one deterministic
    /// answer, never a panic or a shifting errno.  Arrivals parked in
    /// the inbox *before* the loss stay readable.
    lost: Option<String>,
}

impl Client {
    /// Connect and exchange handshakes.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ProtoError> {
        let mut stream = TcpStream::connect(addr)?;
        // Small request frames must leave as soon as they're written —
        // Nagle + the peer's delayed ACK would add ~40 ms per round trip.
        let _ = stream.set_nodelay(true);
        send_handshake(&mut stream)?;
        expect_handshake(&mut stream)?;
        Ok(Client {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
            out: Vec::new(),
            inbox: VecDeque::new(),
            lost: None,
        })
    }

    /// The sticky error, if the transport has already failed.
    fn lost_err(&self) -> Option<ProtoError> {
        self.lost.as_ref().map(|detail| ProtoError::ConnectionLost {
            detail: detail.clone(),
        })
    }

    /// Poison the connection (first detail wins) and return the sticky
    /// error.
    fn mark_lost(&mut self, detail: String) -> ProtoError {
        let detail = self.lost.get_or_insert(detail).clone();
        ProtoError::ConnectionLost { detail }
    }

    /// Frame one request payload into the outgoing buffer, writing the
    /// buffer once it passes the burst ceiling.
    fn send_payload(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        if let Some(e) = self.lost_err() {
            return Err(e);
        }
        put_frame(&mut self.out, payload)?;
        if self.out.len() >= WRITE_BURST {
            self.flush()?;
        }
        Ok(())
    }

    /// Write every buffered request to the socket in one write.  The
    /// receive calls do this themselves before they block, so only a
    /// caller that sends and then waits on something else needs it (see
    /// [`Client::send`]).
    ///
    /// # Errors
    /// [`ProtoError::ConnectionLost`] when the transport has failed; a
    /// failed write poisons the connection.
    pub fn flush(&mut self) -> Result<(), ProtoError> {
        if let Some(e) = self.lost_err() {
            return Err(e);
        }
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.stream.get_mut().write_all(&self.out);
        self.out.clear();
        self.out.shrink_to(WRITE_BURST);
        sent.map_err(|io| self.mark_lost(format!("send failed: {io}")))
    }

    /// Send one request without waiting for its response (pipelining).
    /// Responses arrive in send order; collect them with
    /// [`Client::recv`].
    ///
    /// The request is buffered, and written with the requests around it
    /// in one burst: at the latest when this client next reads from the
    /// socket, on [`Client::flush`], or on drop.  A caller that sends and
    /// then waits on something other than this client — another
    /// connection's event, a timer — must call [`Client::flush`] first.
    ///
    /// # Errors
    /// [`ProtoError::ConnectionLost`] — deterministically, on every call
    /// — once the transport has failed.
    pub fn send(&mut self, session: &str, req: &SessionRequest) -> Result<(), ProtoError> {
        self.send_payload(&encode_request_payload(session, req))
    }

    /// Send one request tagged with a trace context (pipelining, like
    /// [`Client::send`]).  The server parents its own spans under
    /// `ctx.parent_span` when the trace is sampled; an unsampled or
    /// untagged request dispatches byte-identically either way, so old
    /// and new clients interoperate freely.  The client records no span
    /// itself — callers that want a `client.send` root span own a
    /// [`compview_obs::DistTracer`] and pass the span's context here.
    pub fn send_traced(
        &mut self,
        session: &str,
        req: &SessionRequest,
        ctx: TraceCtx,
    ) -> Result<(), ProtoError> {
        self.send_payload(&encode_traced_request_payload(session, req, ctx))
    }

    /// Send one traced request and wait for its response.
    pub fn request_traced(
        &mut self,
        session: &str,
        req: &SessionRequest,
        ctx: TraceCtx,
    ) -> Result<WireResult, ProtoError> {
        self.send_traced(session, req, ctx)?;
        self.recv()
    }

    /// Read one frame off the wire and classify it.  A read that may
    /// block writes the buffered requests first: their answers may be
    /// what it waits for.
    fn read_arrival(&mut self, owed: &str) -> Result<Arrival, ProtoError> {
        if !frame_buffered(self.stream.buffer()) {
            self.flush()?;
        }
        if let Some(e) = self.lost_err() {
            return Err(e);
        }
        let payload = match read_frame(&mut self.stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                return Err(self.mark_lost(format!(
                    "server closed the connection with {owed} still owed"
                )))
            }
            Err(ProtoError::Io(io)) => return Err(self.mark_lost(format!("receive failed: {io}"))),
            // A framing violation (bad CRC, over-limit length, torn
            // stream): surface it as-is this once, but nothing after it
            // can be trusted — poison the connection.
            Err(other) => {
                self.lost
                    .get_or_insert_with(|| format!("stream desynchronised: {other}"));
                return Err(other);
            }
        };
        if is_event_payload(&payload) {
            let (session, event) = decode_event_payload(&payload)?;
            Ok(Arrival::Event(session, event))
        } else {
            Ok(Arrival::Solicited(payload))
        }
    }

    /// The next solicited payload, parking events read past.
    fn next_solicited(&mut self, owed: &str) -> Result<Vec<u8>, ProtoError> {
        if let Some(at) = self
            .inbox
            .iter()
            .position(|a| matches!(a, Arrival::Solicited(_)))
        {
            let Some(Arrival::Solicited(payload)) = self.inbox.remove(at) else {
                unreachable!("position() found a solicited arrival");
            };
            return Ok(payload);
        }
        loop {
            match self.read_arrival(owed)? {
                Arrival::Solicited(payload) => return Ok(payload),
                event => self.inbox.push_back(event),
            }
        }
    }

    /// Receive the next response, parking any delta events that arrive
    /// first (collect those with [`Client::next_event`]).
    ///
    /// # Errors
    /// [`ProtoError::ConnectionLost`] when the server hung up with
    /// responses still owed — and deterministically on every call after
    /// any transport loss.
    pub fn recv(&mut self) -> Result<WireResult, ProtoError> {
        let payload = self.next_solicited("a response")?;
        Ok(decode_result_payload(&payload)?)
    }

    /// Receive the next delta event, parking any responses that arrive
    /// first.  Blocks until an event arrives — only call this when one
    /// is owed (the stream of a live subscription after a mutation) or
    /// expected eventually.
    pub fn next_event(&mut self) -> Result<(String, DeltaEvent), ProtoError> {
        if let Some(at) = self
            .inbox
            .iter()
            .position(|a| matches!(a, Arrival::Event(_, _)))
        {
            let Some(Arrival::Event(session, event)) = self.inbox.remove(at) else {
                unreachable!("position() found an event arrival");
            };
            return Ok((session, event));
        }
        loop {
            match self.read_arrival("an event")? {
                Arrival::Event(session, event) => return Ok((session, event)),
                solicited => self.inbox.push_back(solicited),
            }
        }
    }

    /// Receive whatever the server sent next — response or event — in
    /// exact server order.  Responses are decoded as dispatch outcomes;
    /// pair metrics probes with [`Client::recv_metrics`] instead of
    /// interleaving them through this call.
    pub fn recv_message(&mut self) -> Result<ServerMessage, ProtoError> {
        let arrival = match self.inbox.pop_front() {
            Some(a) => a,
            None => self.read_arrival("a frame")?,
        };
        Ok(match arrival {
            Arrival::Event(session, event) => ServerMessage::Event { session, event },
            Arrival::Solicited(payload) => ServerMessage::Reply(decode_result_payload(&payload)?),
        })
    }

    /// Send one request and wait for its response.
    pub fn request(
        &mut self,
        session: &str,
        req: &SessionRequest,
    ) -> Result<WireResult, ProtoError> {
        self.send(session, req)?;
        self.recv()
    }

    /// Send a metrics-snapshot request without waiting (pipelining);
    /// collect the answer with [`Client::recv_metrics`].  The response
    /// slots into this connection's FIFO like any other request, so a
    /// probe pipelined behind N requests observes all N.
    pub fn send_metrics(&mut self) -> Result<(), ProtoError> {
        self.send_payload(&encode_metrics_request_payload())
    }

    /// Receive the response to a [`Client::send_metrics`], parking delta
    /// events read past.
    ///
    /// # Errors
    /// As [`Client::recv`], plus [`ProtoError::Metrics`] when the frame
    /// does not hold a valid metrics snapshot (e.g. the next owed
    /// response was for an ordinary request — calls must pair up).
    pub fn recv_metrics(&mut self) -> Result<MetricsSnapshot, ProtoError> {
        let payload = self.next_solicited("a metrics response")?;
        Ok(decode_metrics_response_payload(&payload)?)
    }

    /// Fetch the service-wide metrics snapshot.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ProtoError> {
        self.send_metrics()?;
        self.recv_metrics()
    }

    /// Send a `Sessions` listing request without waiting (pipelining);
    /// collect the answer with [`Client::recv_sessions`].
    pub fn send_sessions(&mut self) -> Result<(), ProtoError> {
        self.send_payload(&encode_sessions_payload())
    }

    /// Receive the response to a [`Client::send_sessions`], parking
    /// delta events read past.
    ///
    /// # Errors
    /// As [`Client::recv`], plus [`ProtoError::Decode`] when the next
    /// owed response is not a sessions reply (calls must pair up).
    pub fn recv_sessions(&mut self) -> Result<SessionsReply, ProtoError> {
        let payload = self.next_solicited("a sessions reply")?;
        Ok(decode_sessions_reply_payload(&payload)?)
    }

    /// Fetch the server's durable session names and its root-leader
    /// hint: `leader` is `None` when the server *is* the leader, and the
    /// root's address when it is a follower (possibly chained).
    pub fn sessions(&mut self) -> Result<SessionsReply, ProtoError> {
        self.send_sessions()?;
        self.recv_sessions()
    }

    /// Send a `Trace` drain request without waiting (pipelining);
    /// collect the answer with [`Client::recv_trace`].  Draining is
    /// destructive: the server hands over its buffered spans and starts
    /// afresh, so one collector per node sees every sampled span exactly
    /// once.
    pub fn send_trace(&mut self) -> Result<(), ProtoError> {
        self.send_payload(&encode_trace_request_payload())
    }

    /// Receive the response to a [`Client::send_trace`], parking delta
    /// events read past.
    ///
    /// # Errors
    /// As [`Client::recv`], plus [`ProtoError::Trace`] when the next
    /// owed response is not a trace snapshot (calls must pair up).
    pub fn recv_trace(&mut self) -> Result<TraceSnapshot, ProtoError> {
        let payload = self.next_solicited("a trace snapshot")?;
        Ok(decode_trace_response_payload(&payload)?)
    }

    /// Drain the server's span buffer: every span it recorded since the
    /// last drain, across all dispatcher shards, merged in causal-friendly
    /// `(trace_id, start, span)` order.
    pub fn trace(&mut self) -> Result<TraceSnapshot, ProtoError> {
        self.send_trace()?;
        self.recv_trace()
    }

    /// Send a `Topology` request without waiting (pipelining); collect
    /// the answer with [`Client::recv_topology`].
    pub fn send_topology(&mut self) -> Result<(), ProtoError> {
        self.send_payload(&encode_topology_request_payload())
    }

    /// Receive the response to a [`Client::send_topology`], parking
    /// delta events read past.
    ///
    /// # Errors
    /// As [`Client::recv`], plus [`ProtoError::Decode`] when the next
    /// owed response is not a topology reply (calls must pair up).
    pub fn recv_topology(&mut self) -> Result<TopologyReply, ProtoError> {
        let payload = self.next_solicited("a topology reply")?;
        Ok(decode_topology_reply_payload(&payload)?)
    }

    /// Fetch this node's replication-topology self-report: role,
    /// upstream, per-session apply positions and lag ages, downstream
    /// stream and subscriber counts, heartbeat freshness.
    pub fn topology(&mut self) -> Result<TopologyReply, ProtoError> {
        self.send_topology()?;
        self.recv_topology()
    }

    /// Walk the replication chain from `addr` toward the root: connect
    /// to each node in turn, fetch its [`TopologyReply`], and follow the
    /// `upstream` pointer until a node reports none (the root) or a hop
    /// is unreachable (the walk stops with what it has).  Returns
    /// `(addr, reply)` pairs ordered from the starting node up; a cycle
    /// (possible transiently while a promotion propagates) terminates
    /// the walk rather than looping.
    pub fn topology_chain(addr: &str) -> Result<Vec<(String, TopologyReply)>, ProtoError> {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut next = Some(addr.to_owned());
        while let Some(hop) = next.take() {
            if !seen.insert(hop.clone()) {
                break;
            }
            let reply = match Client::connect(&hop).and_then(|mut c| c.topology()) {
                Ok(r) => r,
                // The first hop must answer; later hops are best-effort
                // (an upstream may be mid-restart).
                Err(e) if out.is_empty() => return Err(e),
                Err(_) => break,
            };
            next = reply.upstream.clone();
            out.push((hop, reply));
        }
        Ok(out)
    }

    /// Send a read-your-writes `ReadAt` without waiting (pipelining):
    /// the server answers `Read { view }` on `session` once its WAL
    /// position reaches `(gen, min_seq)` — the position a leader's write
    /// response or `Stats` reported — or refuses with a typed
    /// `DispatchError::Lagging` after `wait` elapses.  Collect the
    /// answer with [`Client::recv`]; it slots into the connection's FIFO
    /// like any other request.
    pub fn send_read_at(
        &mut self,
        session: &str,
        view: &str,
        gen: u64,
        min_seq: u64,
        wait: std::time::Duration,
    ) -> Result<(), ProtoError> {
        let wait_ms = u64::try_from(wait.as_millis()).unwrap_or(u64::MAX);
        self.send_payload(&encode_read_at_payload(
            session, view, gen, min_seq, wait_ms,
        ))
    }

    /// Send one read-your-writes read and wait for its answer (see
    /// [`Client::send_read_at`]).
    pub fn read_at(
        &mut self,
        session: &str,
        view: &str,
        gen: u64,
        min_seq: u64,
        wait: std::time::Duration,
    ) -> Result<WireResult, ProtoError> {
        self.send_read_at(session, view, gen, min_seq, wait)?;
        self.recv()
    }

    /// Open a subscription on `session`/`view`: sends the `Subscribe`
    /// request and waits for the `Subscribed` response, returning the
    /// subscription id and the full image at sequence 0.  Delta events
    /// then arrive via [`Client::next_event`].
    pub fn subscribe(
        &mut self,
        session: &str,
        view: &str,
    ) -> Result<Result<(u64, compview_relation::Instance), DispatchError>, ProtoError> {
        let outcome = self.request(
            session,
            &SessionRequest::Subscribe {
                view: view.to_string(),
            },
        )?;
        Ok(match outcome {
            Ok(SessionResponse::Subscribed { sub, image, .. }) => Ok((sub, image)),
            Ok(other) => {
                return Err(ProtoError::Io(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("expected a Subscribed response, got {other:?}"),
                )))
            }
            Err(e) => Err(e),
        })
    }
}

impl Drop for Client {
    /// Write what is still buffered, so a request sent without waiting
    /// for its answer is not lost with the client.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}
